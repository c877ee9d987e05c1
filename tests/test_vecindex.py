"""Vector index: construction, exact top-k, tie-breaks, persistence."""

from __future__ import annotations

import json
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_force_top_k
from vulnprompt import vecindex
from vulnprompt.embedding import EmbeddingInput, EmbeddingVector, HashedBagOfTokensBackend
from vulnprompt.labels import label_set
from vulnprompt.runner import build_index_from_corpus
from vulnprompt.synthetic import make_synthetic_corpus
from vulnprompt.vecindex import (
    INDEX_FORMAT,
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
    assert list(index.ids) == ["a", "b", "c"]
    assert index.dimension == 2
    assert index.built_from is None


def test_build_rejects_empty():
    with pytest.raises(VecIndexError, match="zero entries"):
        build([])


def test_build_rejects_duplicate_ids():
    with pytest.raises(VecIndexError, match="duplicate"):
        build([entry("a", (1, 0)), entry("a", (0, 1))])


def test_build_rejects_dimension_mismatch():
    with pytest.raises(VecIndexError, match="dim"):
        build([entry("a", (1, 0)), entry("b", (0, 1, 0))])


@pytest.mark.parametrize(
    "entries, error",
    [
        ([], "zero entries"),
        ([entry("a", (1, 0)), entry("a", (0, 1))], "duplicate"),
        ([entry("a", (1, 0)), entry("b", (0, 1, 0))], "dim"),
    ],
    ids=["empty", "duplicate", "dimension"],
)
@pytest.mark.parametrize("counted", [False, True], ids=["uncounted", "counted"])
def test_build_from_a_generator_rejects_bad_entries(entries, error, counted):
    count = len(entries) if counted else None
    with pytest.raises(VecIndexError, match=error):
        build((e for e in entries), count=count)


def test_build_rejects_a_count_that_does_not_match():
    entries = [entry("a", (1, 0)), entry("b", (0, 1))]
    with pytest.raises(VecIndexError, match="more entries"):
        build(iter(entries), count=1)
    with pytest.raises(VecIndexError, match="announced"):
        build(iter(entries), count=3)


def test_corpus_index_build_holds_one_copy_of_the_vectors():
    corpus = make_synthetic_corpus(seed=3, n_per_label=200)
    backend = HashedBagOfTokensBackend(dimension=256)
    build_index_from_corpus(corpus, backend)  # warms the token memo
    tracemalloc.start()
    try:
        index = build_index_from_corpus(corpus, backend)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * index.matrix.nbytes
    expected = np.stack(
        [
            backend.embed(EmbeddingInput(code=s.code, labels=s.truth)).values
            for s in corpus.train
        ]
    )
    assert index.matrix.tobytes() == expected.tobytes()
    assert list(index.ids) == [s.id for s in corpus.train]
    assert index.truths == tuple(s.truth for s in corpus.train)


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
    # Ids compare as sorted() compares them: "a" before "a\x00".
    index = build([entry("a\x00", same), entry("a", same)])
    hits = top_k(index, unit_vector((1.0, 0.0)), 2)
    assert [h.sample_id for h in hits] == ["a", "a\x00"]


def test_top_k_reads_a_query_stream_one_block_at_a_time(monkeypatch):
    rng = random.Random(17)
    index = build([entry(f"s{i:02d}", random_unit(rng, 6)) for i in range(30)])
    queries = [unit_vector(random_unit(rng, 6)) for _ in range(7)]
    singles = [top_k(index, query, 5) for query in queries]
    read, blocks = [], []

    def stream():
        for query in queries:
            read.append(query)
            yield query

    rank_block = vecindex._rank_block

    def recording_rank_block(index, block, k):
        blocks.append((len(block), len(read)))
        return rank_block(index, block, k)

    monkeypatch.setattr(vecindex, "QUERY_BLOCK", 3)
    monkeypatch.setattr(vecindex, "_rank_block", recording_rank_block)
    assert top_k(index, stream(), 5) == singles
    # Each block is ranked as soon as it has been read, before the next is read.
    assert blocks == [(3, 3), (3, 6), (1, 7)]


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
    stored = [tuple(row) for row in index.matrix.tolist()]
    for _ in range(20):
        query = random_unit(rng, dim)
        expected = brute_force_top_k(ids, stored, query, 7)
        actual = top_k(index, EmbeddingVector(values=query), 7)
        assert [h.sample_id for h in actual] == [i for i, _ in expected]
        for hit, (_, sim) in zip(actual, expected):
            assert hit.similarity == pytest.approx(sim, abs=1e-12)


# vecindex stores a stamp as given; only the runner compares it with a run's.
STAMP = {"backend": "test", "include_labels": True, "train_sha256": "0" * 64}


def test_save_load_round_trip(tmp_path):
    entries = [
        entry("a", (1, 0, 0), labels=("CWE-119", "CWE-476")),
        entry("b", (0, 1, 0), labels=("CWE-120",)),
    ]
    index = build(entries, built_from=STAMP)
    path = tmp_path / "index.bin"
    save_index(index, path)
    loaded = load_index(path)
    assert list(loaded.ids) == ["a", "b"]
    assert loaded.truths == index.truths
    assert loaded.built_from == STAMP
    assert loaded.matrix.tobytes() == index.matrix.tobytes()  # bit-identical rows


def test_save_load_save_gives_identical_bytes(tmp_path):
    rng = random.Random(5)
    index = build([entry(f"s{i:02d}", random_unit(rng, 16)) for i in range(30)], built_from=STAMP)
    first, second = tmp_path / "first.bin", tmp_path / "second.bin"
    save_index(index, first)
    save_index(load_index(first), second)
    assert first.read_bytes() == second.read_bytes()


def test_index_keeps_one_read_only_matrix(tmp_path):
    index = build([entry("a", (1, 0)), entry("b", (0, 1)), entry("c", (1, 1))])
    save_index(index, tmp_path / "index.bin")
    for held in (index, load_index(tmp_path / "index.bin")):
        assert held.matrix.shape == (3, 2) and held.matrix.dtype == np.float64
        with pytest.raises(ValueError, match="read-only"):
            held.matrix[0, 0] = 0.0
        assert held.truths == (label_set(["CWE-119"]),) * 3


def test_load_rejects_malformed(tmp_path):
    """A JSONL index from before the present format is refused, not read."""
    path = tmp_path / "index.jsonl"
    path.write_text('{"id": "a", "vector": [1.0, 0.0], "labels": ["CWE-119"]}\n', encoding="utf-8")
    with pytest.raises(VecIndexError, match="rebuild it with `vulnprompt index build`"):
        load_index(path)


def test_load_rejects_a_file_whose_first_line_is_not_json(tmp_path):
    path = tmp_path / "index.zip"
    path.write_bytes(b"PK\x03\x04\x14\x00\x00\x00\x08\x00\xff\xfe\n\x00")
    with pytest.raises(VecIndexError, match=f"is not a {INDEX_FORMAT} file"):
        load_index(path)


def write_index_file(path, header, matrix, allow_pickle=False):
    """Write an index file by hand: a header line, then a .npy payload."""
    with open(path, "wb") as handle:
        handle.write(json.dumps(header).encode("utf-8") + b"\n")
        np.save(handle, matrix, allow_pickle=allow_pickle)


def good_header(**changes):
    header = {
        "format": INDEX_FORMAT,
        "ids": ["a", "b"],
        "labels": [["CWE-119"], ["CWE-120"]],
        "built_from": STAMP,
    }
    header.update(changes)
    return header


GOOD_MATRIX = np.array([[1.0, 0.0], [0.0, 1.0]])


def test_a_hand_written_index_file_loads(tmp_path):
    write_index_file(tmp_path / "index.bin", good_header(), GOOD_MATRIX)
    index = load_index(tmp_path / "index.bin")
    assert list(index.ids) == ["a", "b"] and index.built_from == STAMP


@pytest.mark.parametrize(
    ("header", "matrix", "error"),
    [
        (good_header(), np.array([["1.0", "0.0"], ["0.0", "x"]]), "matrix is <U3"),
        (good_header(), np.array([[1.0, 0.0], [0.0, None]], dtype=object), "Object arrays"),
        (good_header(), np.array([1.0, 0.0]), r"matrix is float64 \(2,\)"),
        (good_header(), np.array([[1.0, 0.0], [np.inf, 0.0]]), "row 'b' has norm inf"),
        ([1, 2], GOOD_MATRIX, "is not a vulnprompt-index/1 file"),
        ("idvectorlabels", GOOD_MATRIX, "is not a vulnprompt-index/1 file"),
        (good_header(labels=[["CWE-119"], ["CWE-999"]]), GOOD_MATRIX, "labels: not an in-scope"),
        (good_header(labels="CWE-119"), GOOD_MATRIX, "labels must hold one non-empty list"),
        (good_header(labels=[["CWE-119"], [119]]), GOOD_MATRIX, "in-scope CWE label: 119"),
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
def test_load_rejects_malformed_numbers_with_line_number(tmp_path, header, matrix, error):
    """Each malformed value the JSONL codec refused by line number, in the
    present file format: still refused, with the field named."""
    path = tmp_path / "index.bin"
    write_index_file(path, header, matrix, allow_pickle=matrix.dtype == object)
    with pytest.raises(VecIndexError, match=error):
        load_index(path)


@pytest.mark.parametrize(
    ("header", "matrix", "error"),
    [
        (good_header(), np.array([[1.0, 0.0], [0.0, np.nan]]), "row 'b' has norm nan"),
        (good_header(), np.array([[1.0, 0.0], [0.6, 0.6]]), "row 'b' has norm 0.84"),
        (good_header(), np.array([[1.0, 0.0]]), r"matrix is float64 \(1, 2\)"),
        (good_header(), np.zeros((2, 0)), r"matrix is float64 \(2, 0\)"),
        (good_header(), np.zeros((2, 2, 1)), r"matrix is float64 \(2, 2, 1\)"),
        (good_header(), np.array([[1, 0], [0, 1]]), "matrix is int64"),
        (good_header(ids=["a", "a"]), GOOD_MATRIX, "ids must be a non-empty list of unique"),
        (good_header(ids=["a", ""]), GOOD_MATRIX, "ids must be a non-empty list"),
        (good_header(ids=[], labels=[]), GOOD_MATRIX[:0], "ids must be a non-empty list"),
        (good_header(labels=[["CWE-119"], []]), GOOD_MATRIX, "labels must hold one non-empty list"),
        (good_header(labels=[["CWE-119"]]), GOOD_MATRIX, "labels must hold one non-empty list"),
        (good_header(built_from=[1]), GOOD_MATRIX, "built_from must be a mapping or null"),
        (good_header(format="vulnprompt-index/2"), GOOD_MATRIX, "is not a vulnprompt-index/1 file"),
    ],
    ids=[
        "nan",
        "not-unit",
        "too-few-rows",
        "zero-dimension",
        "three-axes",
        "int-matrix",
        "duplicate-id",
        "empty-id",
        "no-ids",
        "empty-labels",
        "labels-short",
        "built-from-not-a-mapping",
        "other-format",
    ],
)
def test_load_rejects_an_inconsistent_index_file(tmp_path, header, matrix, error):
    path = tmp_path / "index.bin"
    write_index_file(path, header, matrix)
    with pytest.raises(VecIndexError, match=error):
        load_index(path)


@pytest.mark.parametrize(
    "damage",
    [
        lambda data: data[:-8],
        lambda data: data[: data.index(b"\n") + 20],
        lambda data: data[: data.index(b"\n") + 1],
        lambda data: data[: data.index(b"\n") + 1] + b"\x80\x04not npy",
    ],
    ids=["truncated-rows", "truncated-npy-header", "no-payload", "pickle-payload"],
)
def test_load_rejects_a_damaged_payload(tmp_path, damage):
    path = tmp_path / "index.bin"
    save_index(build([entry("a", (1, 0)), entry("b", (0, 1))]), path)
    path.write_bytes(damage(path.read_bytes()))
    with pytest.raises(VecIndexError, match="unreadable matrix payload"):
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
    # Trailing NULs, non-ASCII letters, and ids that are prefixes of one another.
    ids = draw(st.lists(
        st.text(alphabet="a\x00\u00e9\u03a9", min_size=1, max_size=3),
        min_size=n, max_size=n, unique=True,
    ))
    query = draw(st.sampled_from(TIE_DIRECTIONS + ((1, 1, 1, 1),)))
    k = draw(st.integers(min_value=1, max_value=n + 2))
    return build([entry(i, d) for i, d in zip(ids, directions)]), unit_vector(query), k


@settings(max_examples=200, deadline=None)
@given(tied_index_and_query())
def test_top_k_equals_a_full_sort_with_ties_at_k(case):
    index, query, k = case
    sims = (index.matrix @ np.asarray(query.values, dtype=np.float64)).tolist()
    full = sorted(zip(sims, index.ids), key=lambda hit: (-hit[0], hit[1]))
    expected = [(sample_id, sim) for sim, sample_id in full[: min(k, len(index))]]
    assert [(h.sample_id, h.similarity) for h in top_k(index, query, k)] == expected
