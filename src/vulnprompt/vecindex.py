"""Exact flat vector index with cosine top-k retrieval.

Corpora in this task are small (hundreds to low thousands of functions), so
brute-force search over a dense matrix is both the simplest and the fastest
correct choice. Ties in similarity break by ascending sample id, which makes
rankings reproducible and prefix-consistent across different k.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .embedding import EmbeddingVector
from .fileio import atomic_write_text
from .labels import UnknownLabelError, label_codes, label_set


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


class VectorIndex:
    """Immutable index: one read-only float64 matrix, its row ids and truths.

    Row i of `matrix` is the unit vector of sample `ids[i]`, whose
    ground-truth labels are `truths[i]`. The matrix is the only copy of the
    vectors; iterating yields entries whose vectors are read-only views of
    its rows.
    """

    def __init__(self, ids: np.ndarray, matrix: np.ndarray, truths: tuple) -> None:
        self._ids = ids
        self._matrix = matrix
        self._truths = truths

    @property
    def dimension(self) -> int:
        return int(self._matrix.shape[1])

    def __len__(self) -> int:
        return len(self._truths)

    def __iter__(self):
        for sample_id, row, truth in zip(self._ids.tolist(), self._matrix, self._truths):
            yield IndexEntry(
                sample_id=sample_id, vector=EmbeddingVector(values=row), truth=truth
            )

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix

    @property
    def ids(self) -> np.ndarray:
        return self._ids

    @property
    def truths(self) -> tuple:
        return self._truths


def build(entries, count: int | None = None) -> VectorIndex:
    """Validate entries (non-empty, unique ids, equal dims) and build an index.

    `count` is the number of entries; a caller streaming a generator passes
    it, and a collection may leave it out. The matrix is allocated once, at
    the first entry, and each entry's vector is copied into its row as the
    entry arrives, so the index keeps no reference to the entries and a
    generator never has more than one vector alive beside the matrix.
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
    return VectorIndex(np.array(ids), matrix, tuple(truths))


def top_k(index: VectorIndex, query: EmbeddingVector, k: int) -> list:
    """Exact top-k by cosine similarity, ties broken by ascending sample id.

    Returns min(k, len(index)) neighbors in rank order. The ranking for k is
    always a prefix of the ranking for k+1.
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
    """Persist an index as JSONL: {"id", "vector", "labels"} per line."""
    lines = [
        json.dumps(
            {"id": sample_id, "vector": row, "labels": label_codes(truth)},
            sort_keys=True,
        )
        for sample_id, row, truth in zip(
            index.ids.tolist(), index.matrix.tolist(), index.truths
        )
    ]
    atomic_write_text(path, "\n".join(lines) + "\n")


def load_index(path: str | Path) -> VectorIndex:
    """Load a JSONL index file written by save_index."""
    entries: list[IndexEntry] = []
    with open(path, encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise VecIndexError(f"line {line_no}: malformed JSON: {exc}") from None
            if not isinstance(record, dict):
                raise VecIndexError(f"line {line_no}: not a JSON object")
            for key in ("id", "vector", "labels"):
                if key not in record:
                    raise VecIndexError(f"line {line_no}: missing field {key!r}")
            try:
                values = [float(v) for v in record["vector"]]
            except (TypeError, ValueError, OverflowError):
                raise VecIndexError(f"line {line_no}: vector is not a list of numbers") from None
            codes = record["labels"]
            if not isinstance(codes, list) or not all(isinstance(c, str) for c in codes):
                raise VecIndexError(f"line {line_no}: labels is not a list of strings")
            try:
                truth = label_set(codes)
            except UnknownLabelError as exc:
                raise VecIndexError(f"line {line_no}: {exc}") from None
            entries.append(
                IndexEntry(
                    sample_id=record["id"],
                    vector=EmbeddingVector(values=values),
                    truth=truth,
                )
            )
    return build(entries)
