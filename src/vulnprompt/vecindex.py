"""Exact flat vector index with cosine top-k retrieval, and its file format.

Corpora in this task are small (hundreds to low thousands of functions), so
brute-force search over a dense matrix is both the simplest and the fastest
correct choice. Rows rank by their float64 cosine similarity, and only
bitwise-equal similarities tie; those break by ascending sample id, which
makes rankings reproducible and prefix-consistent across different k. Two
cosines that are equal in exact arithmetic can still round one ULP apart,
and then rounding, not the id, picks their order (ROADMAP, "Exact retrieval
for hashed vectors").

An index file is one JSON header line (format, ids, label codes and the
`built_from` stamp) followed by the matrix as one .npy payload, so the rows
load bit for bit as they were held, and nothing in the file is unpickled.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .embedding import NORM_TOLERANCE, EmbeddingVector
from .fileio import atomic_open
from .labels import UnknownLabelError, label_codes, label_set

# The header's "format" value; a file whose first line lacks it is rejected.
INDEX_FORMAT = "vulnprompt-index/1"
REBUILD_HINT = "rebuild it with `vulnprompt index build`"


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


@dataclass(frozen=True)
class Neighbor:
    """A retrieval hit: the neighbor's id and its cosine similarity."""

    sample_id: str
    similarity: float


@dataclass(frozen=True, eq=False)
class VectorIndex:
    """Immutable index: one read-only float64 matrix, its row ids and truths.

    Row i of `matrix` is the unit vector of sample `ids[i]`, whose
    ground-truth labels are `truths[i]`. The matrix is the only copy of the
    vectors. `built_from` is the provenance stamp of an index built from a
    corpus (see `runner.index_stamp`), and None for one built from bare entries.
    """

    ids: np.ndarray
    matrix: np.ndarray
    truths: tuple
    built_from: dict | None = None

    @property
    def dimension(self) -> int:
        return int(self.matrix.shape[1])

    def __len__(self) -> int:
        return len(self.truths)


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
    truths: list[frozenset] = []
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
        truths.append(entry.truth)
    if matrix is None:
        raise VecIndexError("cannot build an index from zero entries")
    if len(ids) != count:
        raise VecIndexError(f"got {len(ids)} entries, {count} announced")
    matrix.flags.writeable = False
    return VectorIndex(np.array(ids), matrix, tuple(truths), built_from)


def top_k(index: VectorIndex, query: EmbeddingVector, k: int) -> list:
    """Exact top-k by float64 cosine similarity.

    Bitwise-equal similarities break by ascending sample id; exactly equal
    cosines that round apart keep their rounded order (see the module
    docstring). Returns min(k, len(index)) neighbors in rank order. The
    ranking for k is always a prefix of the ranking for k+1.
    """
    if k < 1:
        raise VecIndexError(f"k must be >= 1, got {k}")
    if query.dim != index.dimension:
        raise VecIndexError(
            f"query dim {query.dim} does not match index dim {index.dimension}"
        )
    sims = index.matrix @ query.values
    neg = -sims
    take = min(k, len(index))
    # Only rows at least as similar as the take-th best can be returned, so
    # sort just those, keeping every row tied with it for the id tie-break.
    # `~(neg > kth)` rather than `neg <= kth` keeps NaN rows, which a full
    # sort places last, as candidates.
    kth = np.partition(neg, take - 1)[take - 1]
    rows = np.flatnonzero(~(neg > kth))
    order = rows[np.lexsort((index.ids[rows], neg[rows]))]
    return [
        Neighbor(sample_id=str(index.ids[i]), similarity=float(sims[i]))
        for i in order[:take]
    ]


def save_index(index: VectorIndex, path: str | Path) -> None:
    """Write one JSON header line, then the matrix as one .npy payload."""
    labels = [label_codes(truth) for truth in index.truths]
    header = {"format": INDEX_FORMAT, "ids": index.ids.tolist(), "labels": labels,
              "built_from": index.built_from}
    with atomic_open(path) as handle:
        handle.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
        np.lib.format.write_array(handle, index.matrix, allow_pickle=False)


def load_index(path: str | Path) -> VectorIndex:
    """Read a file written by save_index, checking every row at once."""
    if Path(path).is_dir():
        raise VecIndexError(f"index path {path} is a directory, not an index file")
    with open(path, "rb") as handle:
        try:
            header = json.loads(handle.readline())
        except ValueError:  # not JSON, or not UTF-8
            header = None
        if not isinstance(header, dict) or header.get("format") != INDEX_FORMAT:
            raise VecIndexError(f"{path} is not a {INDEX_FORMAT} file; {REBUILD_HINT}")
        try:
            matrix = np.lib.format.read_array(handle, allow_pickle=False)
        except (ValueError, EOFError) as exc:
            raise VecIndexError(f"{path}: unreadable matrix payload: {exc}") from None
    ids, labels, built_from = (header.get(key) for key in ("ids", "labels", "built_from"))
    if not (isinstance(ids, list) and ids and all(isinstance(i, str) and i for i in ids)
            and len(set(ids)) == len(ids)):
        raise VecIndexError(f"{path}: ids must be a non-empty list of unique non-empty strings")
    if not isinstance(built_from, (dict, type(None))):
        raise VecIndexError(f"{path}: built_from must be a mapping or null")
    if not (isinstance(labels, list) and len(labels) == len(ids)
            and all(isinstance(codes, list) and codes for codes in labels)):
        raise VecIndexError(f"{path}: labels must hold one non-empty list of label codes per id")
    try:
        truths = tuple(label_set(codes) for codes in labels)
    except UnknownLabelError as exc:
        raise VecIndexError(f"{path}: labels: {exc}") from None
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
    return VectorIndex(np.array(ids), matrix, truths, built_from)
