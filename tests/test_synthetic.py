"""Synthetic corpus generator: determinism, shape, and retrieval fitness."""

from __future__ import annotations

import hashlib

import pytest

from conftest import STANDARD_N_PER_LABEL, STANDARD_SEED
from vulnprompt.corpus import dump_jsonl, ingest
from vulnprompt.embedding import EmbeddingInput
from vulnprompt.labels import CweLabel
from vulnprompt.synthetic import make_synthetic_corpus
from vulnprompt.vecindex import top_k

# Measured once on the standard fixture (seed 7, n_per_label 25) and frozen:
# every single-label test sample's nearest train neighbor carries its label.
FROZEN_NN_PURITY_119 = 1.0

# SHA-256 of dump_jsonl(make_synthetic_corpus(seed, n_per_label)), frozen, at
# the sizes that the quick start, CI, bench/selftest.py and the benchmark
# workloads generate. Golden digests and acceptance figures rest on these bytes.
CORPUS_SHA256 = {
    (7, 25): "80fd47bb884625df32589f9213ce888a15c79016ccf8536303ad4699c6240e79",
    (7, 10): "529002d3317c0e81f94637c1305f6222af52050fb62879dccf18f94a77436d38",
    (3, 5): "ee864fed2dea83e331df055f53cf2b72f1afea952dbec2121e35a6a4e0eff64a",
    (7, 100): "67e75d38c9d7e57ad502d2eb36d391a5d7d43da873f59b51edd260fe6413483c",
    (7, 250): "17aa939db7b7be4a9ed5315fc507c2b497146e70d0cfd7e767473e44ba8f4179",
    (7, 501): "945259ea7c3cce32a78b38d4853536c55ef17c99a6f6ce4b58deda5d24ad9f1d",
    (7, 600): "5dfaabc794f5532ecec4f16bbca17b88f3d78bd50477d87efc5e49b7aefdd8b7",
    (11, 250): "46da29b9a59eca994bd7674fb23e13257d84f8dacd18912d2efaac844d78db75",
    (0, 1): "dd90354df5d7a7c2e93dd0ff59de4ed1ef798d820ca9b8287430d0d6bae5a756",
}


@pytest.mark.parametrize(("seed", "n_per_label"), sorted(CORPUS_SHA256))
def test_the_corpus_bytes_are_pinned(tmp_path, seed, n_per_label):
    """The generator's draw order is the corpus format (see the module docstring)."""
    path = tmp_path / "corpus.jsonl"
    dump_jsonl(make_synthetic_corpus(seed, n_per_label), path)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == CORPUS_SHA256[(seed, n_per_label)]


def test_deterministic_from_seed():
    a = make_synthetic_corpus(seed=3, n_per_label=5)
    b = make_synthetic_corpus(seed=3, n_per_label=5)
    assert a.train == b.train
    assert a.test == b.test


def test_different_seeds_differ():
    a = make_synthetic_corpus(seed=3, n_per_label=5)
    b = make_synthetic_corpus(seed=4, n_per_label=5)
    assert [s.code for s in a.samples] != [s.code for s in b.samples]


def test_standard_fixture_shape(synthetic_corpus):
    assert len(synthetic_corpus.train) == 104
    assert len(synthetic_corpus.test) == 26
    ids = [s.id for s in synthetic_corpus.samples]
    assert len(set(ids)) == len(ids)


def test_single_label_families():
    corpus = make_synthetic_corpus(seed=7, n_per_label=5)
    singles = [s for s in corpus.samples if s.id.count("-") == 2]
    assert len(singles) == 20
    for sample in singles:
        assert len(sample.truth) == 1


def test_pair_samples_carry_both_labels():
    corpus = make_synthetic_corpus(seed=7, n_per_label=5)
    pairs = [s for s in corpus.samples if s.id.count("-") == 3]
    assert len(pairs) == 6
    for sample in pairs:
        _, a, b, _ = sample.id.split("-")
        expected = {f"CWE-{a}", f"CWE-{b}"}
        assert {label.value for label in sample.truth} == expected


def test_every_truth_non_empty(synthetic_corpus):
    for sample in synthetic_corpus.samples:
        assert sample.truth


def test_rejects_non_positive_n():
    with pytest.raises(ValueError):
        make_synthetic_corpus(seed=1, n_per_label=0)


def test_emits_standard_schema(tmp_path, synthetic_corpus):
    path = tmp_path / "synthetic.jsonl"
    dump_jsonl(synthetic_corpus, path)
    loaded = ingest(path)
    assert loaded.train == synthetic_corpus.train
    assert loaded.test == synthetic_corpus.test


def test_nearest_neighbor_purity_119(synthetic_corpus, synthetic_index, hashed_backend):
    """Frozen regression: single-label 119 test samples retrieve a
    119-labeled nearest train neighbor at the required >= 0.80 rate."""
    assert (STANDARD_SEED, STANDARD_N_PER_LABEL) == (7, 25)
    by_id = synthetic_corpus.by_id()
    singles = [
        s
        for s in synthetic_corpus.test
        if s.truth == frozenset({CweLabel.CWE_119})
    ]
    assert singles
    hits = 0
    for sample in singles:
        query = hashed_backend.embed(EmbeddingInput(code=sample.code))
        nearest = top_k(synthetic_index, query, 1)[0]
        if CweLabel.CWE_119 in by_id[nearest.sample_id].truth:
            hits += 1
    purity = hits / len(singles)
    assert purity >= 0.80
    assert purity == FROZEN_NN_PURITY_119
