"""Blocked top_k: every ranking equals a full sort, by (-similarity, id), of
the similarities a single-threaded `matrix @ query` gives, bit for bit,
whatever the number of queries and the BLAS thread count."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import vulnprompt
from vulnprompt.embedding import EmbeddingVector
from vulnprompt.labels import label_set
from vulnprompt.vecindex import QUERY_BLOCK, IndexEntry, build, top_k

TRUTH = label_set(["CWE-119"])


def unit_rows(rng, count, dim):
    rows = rng.standard_normal((count, dim))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def as_pairs(neighbors):
    return [(n.sample_id, n.similarity.hex()) for n in neighbors]


@st.composite
def blocked_case(draw):
    """An index of up to 300 rows, many of them copies of one of its first
    three rows and some nudged by one ULP in one coordinate, so similarities
    tie or nearly tie across the k-th place; and a block of queries, some
    equal to index rows. Below about 1,500 rows at dimension 256 the
    reference `matrix @ query` runs on one thread."""
    n = draw(st.integers(min_value=1, max_value=300))
    dim = draw(st.sampled_from((1, 3, 17, 256)))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    rows = unit_rows(rng, n, dim)
    copies = draw(st.integers(min_value=0, max_value=n))
    rows[rng.integers(n, size=copies)] = rows[rng.integers(min(n, 3))]
    for _ in range(draw(st.integers(min_value=0, max_value=n // 2))):
        row, col = rng.integers(n), rng.integers(dim)
        rows[row, col] = np.nextafter(rows[row, col], rng.choice((-np.inf, np.inf)))
    # Pairs of ids that differ only by a trailing NUL, and ids that are
    # prefixes of one another ("s1", "s10").
    ids = [f"s{i // 2}" + "\x00" * (i % 2) for i in rng.permutation(n)]
    index = build(
        IndexEntry(sample_id=i, vector=EmbeddingVector(values=r), truth=TRUTH)
        for i, r in zip(ids, rows)
    )
    count = draw(st.integers(min_value=1, max_value=2 * QUERY_BLOCK + 3))
    queries = unit_rows(rng, count, dim)
    for q in range(0, count, 3):
        queries[q] = rows[rng.integers(n)]
    k = draw(st.integers(min_value=1, max_value=n + 2))
    return index, [EmbeddingVector(values=q) for q in queries], k


@settings(max_examples=120, deadline=None)
@given(blocked_case())
def test_blocked_top_k_equals_a_full_sort_of_the_matrix_vector_product(case):
    index, queries, k = case
    rankings = top_k(index, queries, k)
    assert len(rankings) == len(queries)
    for query, ranking in zip(queries, rankings):
        sims = (index.matrix @ query.values).tolist()
        full = sorted(zip(sims, index.ids), key=lambda hit: (-hit[0], hit[1]))
        assert as_pairs(ranking) == [(i, sim.hex()) for sim, i in full[: min(k, len(index))]]
        assert as_pairs(top_k(index, query, k)) == as_pairs(ranking)


def test_an_empty_block_has_no_rankings():
    index = build([IndexEntry("a", EmbeddingVector(values=(1.0, 0.0)), TRUTH)])
    assert top_k(index, [], 3) == []


# Ranks QUERY_BLOCK + 6 queries against a seeded 2,001 x 256 index at k = every
# row, in one top_k call, which crosses a block boundary, and one query at a
# time, and prints each hit's id and similarity bits.
RANK_SCRIPT = """
import json
import numpy as np
from vulnprompt.embedding import EmbeddingVector
from vulnprompt.labels import label_set
from vulnprompt.vecindex import QUERY_BLOCK, IndexEntry, build, top_k

rng = np.random.default_rng(2001)
def unit_rows(count):
    rows = rng.standard_normal((count, 256))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)
index = build(
    IndexEntry(f"s{i:04d}", EmbeddingVector(values=row), label_set(["CWE-119"]))
    for i, row in enumerate(unit_rows(2001))
)
queries = [EmbeddingVector(values=q) for q in unit_rows(QUERY_BLOCK + 6)]
pairs = lambda hits: [(h.sample_id, h.similarity.hex()) for h in hits]
print(json.dumps({
    "single": [pairs(top_k(index, q, len(index))) for q in queries],
    "block": [pairs(hits) for hits in top_k(index, queries, len(index))],
}))
"""


def test_rankings_do_not_depend_on_the_blas_thread_count():
    # A threaded product over 2,001 rows splits them between threads at a
    # row that is not a multiple of four, and rounds some rows differently.
    src = str(Path(vulnprompt.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-c", RANK_SCRIPT],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads},
            check=True,
        )
        outputs.append(json.loads(proc.stdout))
    one, two = outputs
    assert one["single"] == one["block"]
    assert two == one
