"""Exact flat vector index with cosine top-k retrieval, and its file format.

Corpora in this task are small (hundreds to tens of thousands of functions),
so brute-force search over a dense matrix is both the simplest and the
fastest correct choice. A row's similarity to a query is the float64 value
that one single-threaded matrix-vector product `matrix @ query` gives it.
Rows rank by that similarity, and only bitwise-equal similarities tie; those
break by ascending sample id, compared by code point as `sorted` compares
strings, which makes rankings reproducible and prefix-consistent across
different k. Two cosines that are equal in exact arithmetic can still round
one ULP apart, and then rounding, not the id, picks their order (ROADMAP,
"Exact retrieval for hashed vectors").

`top_k` reads its queries QUERY_BLOCK at a time and ranks each block with one
matrix product, which rounds differently from the matrix-vector product, and
then recomputes the similarity of the few rows that can still rank. That
selection loses no row. Rows and queries are unit vectors, so a dot product
of dimension m rounded in any order is within gamma_m = m*u / (1 - m*u) of
its exact value (u = 2**-53; Higham 2002, section 3.1), and two roundings of
one similarity are within 2 * gamma_m of each other. `_rounding_bound` is
that bound times a safety factor of 4, about 2.3e-13 at dimension 256. Since
k rows have an approximate similarity of at least the k-th best approximate
one, the k-th best similarity is at least that value minus the bound. So a
row in the top k, or tied at its boundary, has an approximate similarity of
at least the k-th best approximate one minus twice the bound, and every such
row is kept.

The recomputation rests on how OpenBLAS's dgemv rounds a row: by the group
of rows it computes it with, at the row's own address. Over a whole matrix
it computes rows in groups of four from the first row, and the last whole
group together with the `n % 4` rows after it. So `matrix[lo:hi] @ query`
over a view of a row's group gives the row the bits that a single-threaded
product over the whole matrix gives it. OpenBLAS runs such a small product
on one thread, so the similarities do not depend on the BLAS thread count;
a product over the whole matrix split between threads at a row that is not
a multiple of four rounds some rows differently. This was measured with
OpenBLAS 0.3.31, and `tests/test_blocked_ranking.py` checks both claims.

An index file is one JSON header line, holding the format and the
`built_from` stamp, followed by the matrix as one .npy payload, so the rows
load bit for bit as they were held, and nothing in the file is unpickled.
The file keeps no ids or labels: the stamp pins the train split, and the
run that loads the file supplies the split's ids from its corpus.
"""

from __future__ import annotations

import json
from collections.abc import Iterable
from dataclasses import dataclass
from itertools import islice
from pathlib import Path

import numpy as np

from .embedding import NORM_TOLERANCE, EmbeddingVector
from .fileio import atomic_open

# The header's "format" value; a file whose first line lacks it is rejected.
INDEX_FORMAT = "vulnprompt-index/1"
REBUILD_HINT = "rebuild it with `vulnprompt index build`"

# Queries that top_k ranks with one matrix product: the product reads the
# index once for all of them. Its result and OpenBLAS's packing buffer grow
# with the block: on the retrieval_scale benchmark, peak RSS read 0.2 MB above
# one product per query at 32 queries, and 0.3 MB below it at 24.
QUERY_BLOCK = 24


class VecIndexError(ValueError):
    """Raised on malformed index construction, queries, or files."""


@dataclass(frozen=True)
class IndexEntry:
    """One indexed train sample: id, unit vector, and ground-truth labels."""

    sample_id: str
    vector: EmbeddingVector
    truth: frozenset

    def __post_init__(self) -> None:
        if not self.sample_id:
            raise VecIndexError("index entry sample_id must be non-empty")
        if not self.truth:
            raise VecIndexError(f"entry {self.sample_id!r}: truth must be non-empty")


@dataclass(frozen=True, slots=True)
class Neighbor:
    """A retrieval hit: the neighbor's id and its cosine similarity. A run
    holds one per hit of every test query's ranking, so it has no __dict__."""

    sample_id: str
    similarity: float


@dataclass(frozen=True, eq=False)
class VectorIndex:
    """Immutable index: one read-only float64 matrix and its row ids; no labels.

    Row i of `matrix` is the unit vector of sample `ids[i]`. The matrix is
    the only copy of the vectors. `built_from` is the provenance stamp of an
    index built from a corpus, and None for one built from bare entries.
    """

    ids: tuple[str, ...]
    matrix: np.ndarray
    built_from: dict | None = None

    @property
    def dimension(self) -> int:
        return int(self.matrix.shape[1])

    def __len__(self) -> int:
        return len(self.ids)


def build(entries, count: int | None = None, built_from: dict | None = None) -> VectorIndex:
    """Validate entries (non-empty, unique ids, equal dims) and build an index.

    `count` is the number of entries; a caller streaming a generator passes
    it, and a collection may leave it out. `built_from` becomes the index's
    provenance stamp. The matrix is allocated once, at the first entry, and
    each entry's vector is copied into its row as the entry arrives, so the
    index keeps no reference to the entries and a generator never has more
    than one vector alive beside the matrix.
    """
    if count is None:
        entries = tuple(entries)
        count = len(entries)
    ids: list[str] = []
    seen: set[str] = set()
    matrix = None
    for row, entry in enumerate(entries):
        if row >= count:
            raise VecIndexError(f"more entries than the {count} announced")
        if matrix is None:
            matrix = np.empty((count, entry.vector.dim))
        if entry.sample_id in seen:
            raise VecIndexError(f"duplicate entry id {entry.sample_id!r}")
        seen.add(entry.sample_id)
        if entry.vector.dim != matrix.shape[1]:
            raise VecIndexError(
                f"entry {entry.sample_id!r} has dim {entry.vector.dim}, "
                f"expected {matrix.shape[1]}"
            )
        matrix[row] = entry.vector.values
        ids.append(entry.sample_id)
    if matrix is None:
        raise VecIndexError("cannot build an index from zero entries")
    if len(ids) != count:
        raise VecIndexError(f"got {len(ids)} entries, {count} announced")
    matrix.flags.writeable = False
    return VectorIndex(tuple(ids), matrix, built_from)


def top_k(index: VectorIndex, query: EmbeddingVector | Iterable[EmbeddingVector], k: int) -> list:
    """Exact top-k by float64 cosine similarity, for one query or a stream.

    `query` is one EmbeddingVector, whose ranking is returned, or an iterable
    of them, read QUERY_BLOCK at a time, for which one ranking per query is
    returned in order. Equal similarities break by ascending sample id, as
    `sorted` orders strings; exactly equal cosines that round apart keep their
    rounded order. A ranking holds min(k, len(index)) neighbors in rank
    order, and the ranking for k is always a prefix of the ranking for k+1.
    """
    if k < 1:
        raise VecIndexError(f"k must be >= 1, got {k}")
    if isinstance(query, EmbeddingVector):
        return _rank_block(index, [query], k)[0]
    queries, rankings = iter(query), []
    while block := list(islice(queries, QUERY_BLOCK)):
        rankings.extend(_rank_block(index, block, k))
    return rankings


def _rank_block(index: VectorIndex, queries: list, k: int) -> list:
    """One ranking per query of a non-empty block, from one matrix product."""
    for vector in queries:
        if vector.dim != index.dimension:
            raise VecIndexError(
                f"query dim {vector.dim} does not match index dim {index.dimension}"
            )
    matrix = index.matrix
    take = min(k, len(index))
    approx = np.stack([vector.values for vector in queries]) @ matrix.T
    # Each query's take-th best approximate similarity, less twice the
    # rounding bound, is the floor for its candidates.
    cut = len(index) - take
    floor = np.partition(approx, cut, axis=1)[:, cut] - 2 * _rounding_bound(index.dimension)
    candidates = approx >= floor[:, None]
    del approx
    ids = index.ids
    rankings = []
    for vector, keep in zip(queries, candidates):
        rows = np.flatnonzero(keep).tolist()
        sims = _exact_similarities(matrix, vector.values, rows).tolist()
        hits = sorted(zip(sims, [ids[row] for row in rows]), key=lambda hit: (-hit[0], hit[1]))
        rankings.append([Neighbor(sample_id, sim) for sim, sample_id in hits[:take]])
    return rankings


def _rounding_bound(dimension: int) -> float:
    """Bound on the difference between two roundings of one similarity of
    unit vectors: 4 * 2 * gamma_m (see the module docstring)."""
    mu = dimension * 2.0**-53
    return 4 * 2 * mu / (1 - mu)


def _exact_similarities(matrix: np.ndarray, query: np.ndarray, rows: list) -> np.ndarray:
    """The similarities a single-threaded `matrix @ query` gives the ascending
    `rows`, each computed over a view of the row's group (see the module
    docstring)."""
    n = len(matrix)
    last = max(n - n % 4 - 4, 0)  # the final group runs from here to row n
    sims = np.empty(len(rows))
    group = -1
    for j, row in enumerate(rows):
        lo = min(row - row % 4, last)
        if lo != group:
            group = lo
            values = (matrix[lo:lo + 4] if lo < last else matrix[lo:]) @ query
        sims[j] = values[row - lo]
    return sims


def save_index(index: VectorIndex, path: str | Path) -> None:
    """Write one JSON header line, the format and the index's `built_from`
    stamp, then the matrix as one .npy payload."""
    header = {"format": INDEX_FORMAT, "built_from": index.built_from}
    with atomic_open(path) as handle:
        handle.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
        np.lib.format.write_array(handle, index.matrix, allow_pickle=False)


def load_index(path: str | Path, ids, built_from: dict) -> VectorIndex:
    """Read a file written by save_index as the index of a train split.

    `ids` are the split's sample ids in split order, and `built_from` the
    stamp its index must carry. A file whose stamp differs is refused, naming
    every differing key, before its matrix is read; then the matrix must hold
    one unit row per id. Keys other than `format` and `built_from` in the
    header are ignored.
    """
    if Path(path).is_dir():
        raise VecIndexError(f"index path {path} is a directory, not an index file")
    with open(path, "rb") as handle:
        try:
            header = json.loads(handle.readline())
        except ValueError:  # not JSON, or not UTF-8
            header = None
        if not isinstance(header, dict) or header.get("format") != INDEX_FORMAT:
            raise VecIndexError(f"{path} is not a {INDEX_FORMAT} file; {REBUILD_HINT}")
        found = header.get("built_from")
        if not isinstance(found, dict):
            raise VecIndexError(f"index {path} has no built_from stamp; {REBUILD_HINT}")
        differing = sorted(
            key for key in built_from.keys() | found.keys() if built_from.get(key) != found.get(key)
        )
        if differing:
            raise VecIndexError(
                f"index {path} does not match this run in {', '.join(differing)}; {REBUILD_HINT}"
            )
        try:
            matrix = np.lib.format.read_array(handle, allow_pickle=False)
        except (ValueError, EOFError) as exc:
            raise VecIndexError(f"{path}: unreadable matrix payload: {exc}") from None
    ids = tuple(ids)
    if (matrix.dtype != np.float64 or matrix.ndim != 2
            or matrix.shape[0] != len(ids) or not matrix.shape[1]):
        raise VecIndexError(
            f"{path}: matrix is {matrix.dtype} {matrix.shape}, expected float64 ({len(ids)}, dim)"
        )
    # A NaN or infinite value makes its row's norm non-finite as well.
    norms = np.sqrt(np.einsum("ij,ij->i", matrix, matrix))
    bad = np.flatnonzero(~(np.abs(norms - 1.0) <= NORM_TOLERANCE))
    if bad.size:
        row = bad[0]
        raise VecIndexError(f"{path}: row {ids[row]!r} has norm {float(norms[row])!r}, not 1.0")
    matrix.flags.writeable = False
    return VectorIndex(ids, matrix, found)
