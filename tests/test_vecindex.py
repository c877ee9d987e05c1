"""Vector index: construction, exact top-k, tie-breaks, persistence."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_force_top_k
from vulnprompt.embedding import EmbeddingVector
from vulnprompt.labels import label_set
from vulnprompt.vecindex import (
    IndexEntry,
    VecIndexError,
    build,
    load_index,
    save_index,
    top_k,
)


def unit_vector(values):
    norm = math.sqrt(sum(v * v for v in values))
    return EmbeddingVector(values=tuple(v / norm for v in values))


def entry(sample_id, values, labels=("CWE-119",)):
    return IndexEntry(
        sample_id=sample_id, vector=unit_vector(values), truth=label_set(labels)
    )


def random_unit(rng, dim):
    values = [rng.gauss(0.0, 1.0) for _ in range(dim)]
    norm = math.sqrt(sum(v * v for v in values))
    return tuple(v / norm for v in values)


def test_build_counts_and_order():
    entries = [entry("a", (1, 0)), entry("b", (0, 1)), entry("c", (1, 1))]
    index = build(entries)
    assert len(index) == 3
    assert [e.sample_id for e in index] == ["a", "b", "c"]
    assert index.dimension == 2


def test_build_rejects_empty():
    with pytest.raises(VecIndexError, match="zero entries"):
        build([])


def test_build_rejects_duplicate_ids():
    with pytest.raises(VecIndexError, match="duplicate"):
        build([entry("a", (1, 0)), entry("a", (0, 1))])


def test_build_rejects_dimension_mismatch():
    with pytest.raises(VecIndexError, match="dim"):
        build([entry("a", (1, 0)), entry("b", (0, 1, 0))])


def test_top_k_hand_example():
    index = build(
        [entry("e1", (1.0, 0.0)), entry("e2", (0.0, 1.0)), entry("e3", (0.6, 0.8))]
    )
    hits = top_k(index, unit_vector((1.0, 0.0)), 2)
    assert [h.sample_id for h in hits] == ["e1", "e3"]
    assert hits[0].similarity == pytest.approx(1.0, abs=1e-9)
    assert hits[1].similarity == pytest.approx(0.6, abs=1e-9)


def test_top_k_self_retrieval():
    vec = unit_vector((0.2, -0.5, 0.7))
    index = build(
        [
            IndexEntry(sample_id="self", vector=vec, truth=label_set(["CWE-120"])),
            entry("other", (1, 0, 0)),
        ]
    )
    hits = top_k(index, vec, 1)
    assert hits[0].sample_id == "self"
    assert hits[0].similarity == pytest.approx(1.0, abs=1e-9)


def test_top_k_larger_than_index_returns_all_sorted():
    index = build([entry("a", (1, 0)), entry("b", (0, 1)), entry("c", (1, 1))])
    hits = top_k(index, unit_vector((1.0, 0.0)), 10)
    assert len(hits) == 3
    sims = [h.similarity for h in hits]
    assert sims == sorted(sims, reverse=True)


def test_top_k_rejects_bad_inputs():
    index = build([entry("a", (1, 0))])
    with pytest.raises(VecIndexError, match="k must be"):
        top_k(index, unit_vector((1.0, 0.0)), 0)
    with pytest.raises(VecIndexError, match="dim"):
        top_k(index, unit_vector((1.0, 0.0, 0.0)), 1)


def test_top_k_ties_break_by_ascending_id():
    same = (0.6, 0.8)
    index = build([entry("z", same), entry("a", same), entry("m", same)])
    hits = top_k(index, unit_vector((1.0, 0.0)), 3)
    assert [h.sample_id for h in hits] == ["a", "m", "z"]


def test_prefix_property_small():
    rng = random.Random(11)
    entries = [entry(f"s{i:03d}", random_unit(rng, 8)) for i in range(40)]
    index = build(entries)
    query = unit_vector(random_unit(rng, 8))
    previous = []
    for k in range(1, 15):
        hits = [h.sample_id for h in top_k(index, query, k)]
        assert hits[: len(previous)] == previous
        previous = hits


def test_matches_brute_force_oracle_small():
    rng = random.Random(13)
    dim = 6
    vectors = [random_unit(rng, dim) for _ in range(60)]
    ids = [f"v{i:02d}" for i in range(60)]
    entries = [entry(i, v) for i, v in zip(ids, vectors)]
    index = build(entries)
    stored = [tuple(e.vector.values) for e in index]
    for _ in range(20):
        query = random_unit(rng, dim)
        expected = brute_force_top_k(ids, stored, query, 7)
        actual = top_k(index, EmbeddingVector(values=query), 7)
        assert [h.sample_id for h in actual] == [i for i, _ in expected]
        for hit, (_, sim) in zip(actual, expected):
            assert hit.similarity == pytest.approx(sim, abs=1e-12)


def test_save_load_round_trip(tmp_path):
    entries = [
        entry("a", (1, 0, 0), labels=("CWE-119", "CWE-476")),
        entry("b", (0, 1, 0), labels=("CWE-120",)),
    ]
    index = build(entries)
    path = tmp_path / "index.jsonl"
    save_index(index, path)
    loaded = load_index(path)
    assert [e.sample_id for e in loaded] == ["a", "b"]
    for original, reloaded in zip(index, loaded):
        assert reloaded.vector == original.vector
        assert reloaded.truth == original.truth


def test_save_load_save_gives_identical_bytes(tmp_path):
    rng = random.Random(5)
    index = build([entry(f"s{i:02d}", random_unit(rng, 16)) for i in range(30)])
    first, second = tmp_path / "first.jsonl", tmp_path / "second.jsonl"
    save_index(index, first)
    save_index(load_index(first), second)
    assert first.read_bytes() == second.read_bytes()


def test_index_keeps_one_read_only_matrix():
    index = build([entry("a", (1, 0)), entry("b", (0, 1)), entry("c", (1, 1))])
    assert index.matrix.shape == (3, 2) and index.matrix.dtype == np.float64
    with pytest.raises(ValueError, match="read-only"):
        index.matrix[0, 0] = 0.0
    for row, yielded in enumerate(index):
        assert np.shares_memory(yielded.vector.values, index.matrix)
        assert yielded.vector.values.tolist() == index.matrix[row].tolist()
        with pytest.raises(ValueError, match="read-only"):
            yielded.vector.values[0] = 0.0
    assert index.truths == (label_set(["CWE-119"]),) * 3


def test_load_rejects_malformed(tmp_path):
    path = tmp_path / "index.jsonl"
    path.write_text('{"id": "a"}\n', encoding="utf-8")
    with pytest.raises(VecIndexError, match="missing field"):
        load_index(path)


@pytest.mark.parametrize(
    ("bad_line", "error"),
    [
        ('{"id": "b", "vector": [0.0, "x"], "labels": ["CWE-119"]}', "line 2: vector is not"),
        ('{"id": "b", "vector": [0.0, null], "labels": ["CWE-119"]}', "line 2: vector is not"),
        ('{"id": "b", "vector": 1.0, "labels": ["CWE-119"]}', "line 2: vector is not"),
        ('{"id": "b", "vector": [1%s, 0.0], "labels": ["CWE-119"]}' % ("0" * 400), "line 2: vector is not"),
        ("[1, 2]", "line 2: not a JSON object"),
        ('"idvectorlabels"', "line 2: not a JSON object"),
        ('{"id": "b", "vector": [0.0, 1.0], "labels": ["CWE-999"]}', "line 2: not an in-scope CWE label"),
        ('{"id": "b", "vector": [0.0, 1.0], "labels": "CWE-119"}', "line 2: labels is not a list of strings"),
        ('{"id": "b", "vector": [0.0, 1.0], "labels": [119]}', "line 2: labels is not a list of strings"),
    ],
    ids=[
        "string-value",
        "null-value",
        "not-a-list",
        "huge-int",
        "list-line",
        "string-line",
        "unknown-label",
        "labels-not-a-list",
        "labels-not-strings",
    ],
)
def test_load_rejects_malformed_numbers_with_line_number(tmp_path, bad_line, error):
    path = tmp_path / "index.jsonl"
    good = '{"id": "a", "vector": [1.0, 0.0], "labels": ["CWE-119"]}'
    path.write_text(f"{good}\n{bad_line}\n", encoding="utf-8")
    with pytest.raises(VecIndexError, match=error):
        load_index(path)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=1, max_value=12))
def test_prefix_property_random(seed, k):
    rng = random.Random(seed)
    entries = [entry(f"s{i:02d}", random_unit(rng, 5)) for i in range(25)]
    index = build(entries)
    query = EmbeddingVector(values=random_unit(rng, 5))
    shorter = [h.sample_id for h in top_k(index, query, k)]
    longer = [h.sample_id for h in top_k(index, query, k + 1)]
    assert longer[:k] == shorter


# A few fixed directions: entries sharing one have bit-identical similarities
# to any query, so most draws put a run of ties across the k-th position.
TIE_DIRECTIONS = ((1, 0, 0, 0), (1, 1, 0, 0), (1, 1, 1, 0), (0, 0, 1, 1))


@st.composite
def tied_index_and_query(draw):
    n = draw(st.integers(min_value=1, max_value=40))
    directions = draw(st.lists(st.sampled_from(TIE_DIRECTIONS), min_size=n, max_size=n))
    ids = draw(st.permutations([f"s{i:03d}" for i in range(n)]))
    query = draw(st.sampled_from(TIE_DIRECTIONS + ((1, 1, 1, 1),)))
    k = draw(st.integers(min_value=1, max_value=n + 2))
    return build([entry(i, d) for i, d in zip(ids, directions)]), unit_vector(query), k


@settings(max_examples=200, deadline=None)
@given(tied_index_and_query())
def test_top_k_equals_full_lexsort_with_ties_at_k(case):
    index, query, k = case
    sims = index.matrix @ np.asarray(query.values, dtype=np.float64)
    full = np.lexsort((index.ids, -sims))[: min(k, len(index))]
    expected = [(str(index.ids[i]), float(sims[i])) for i in full]
    assert [(h.sample_id, h.similarity) for h in top_k(index, query, k)] == expected
