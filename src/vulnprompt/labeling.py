"""Turning raw completions or retrieval hits into label sets.

Model output parsing is deliberately forgiving about formatting (case,
separators, prose around the labels) but strict about the vocabulary: a CWE
number outside the four in-scope categories is reported as an unknown
mention, never silently mapped. The retrieval-based labeler skips the model
entirely and unions the ground-truth labels of the nearest neighbors.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .labels import CweLabel

_CWE_MENTION_RE = re.compile(r"cwe[\s\-_]?(\d+)", re.IGNORECASE)

_BY_NUMBER = {str(label.number): label for label in CweLabel}


class LabelingError(ValueError):
    """Raised when retrieval-based labeling gets unusable inputs."""


@dataclass(frozen=True)
class ParseOutcome:
    """Parsed labels plus everything the parser had to discard.

    unknown_mentions keeps the digit strings of CWE references outside the
    vocabulary, deduplicated in order of first appearance. empty_parse is
    True when the text contained no CWE mention at all.
    """

    labels: frozenset
    unknown_mentions: tuple
    empty_parse: bool


def parse_labels(text: str) -> ParseOutcome:
    """Extract in-scope CWE labels from free-form model output.

    Matches "CWE-119", "cwe 119", "CWE_119" and similar; the digit string
    must equal an in-scope number exactly, so "CWE-0119" counts as unknown.
    """
    labels: set[CweLabel] = set()
    unknown: list[str] = []
    matched = False
    for match in _CWE_MENTION_RE.finditer(text):
        matched = True
        digits = match.group(1)
        if digits in _BY_NUMBER:
            labels.add(_BY_NUMBER[digits])
        elif digits not in unknown:
            unknown.append(digits)
    return ParseOutcome(
        labels=frozenset(labels),
        unknown_mentions=tuple(unknown),
        empty_parse=not matched,
    )


def retrieval_label(neighbors, corpus) -> frozenset:
    """Predict the union of the neighbors' ground-truth label sets.

    This bypasses model inference entirely: the k nearest train samples vote
    by contributing every label they carry. Predictions are monotone in k,
    so recall can only grow as more neighbors are added.

    corpus is a Corpus or a mapping from sample id to sample. A mapping is
    used as given, so a caller labeling many queries builds it once.
    """
    neighbors = list(neighbors)
    if not neighbors:
        raise LabelingError("retrieval labeling needs at least one neighbor")
    samples_by_id = corpus.by_id() if hasattr(corpus, "by_id") else corpus
    labels: set[CweLabel] = set()
    for neighbor in neighbors:
        try:
            sample = samples_by_id[neighbor.sample_id]
        except KeyError:
            raise LabelingError(
                f"neighbor id {neighbor.sample_id!r} not found in corpus"
            ) from None
        labels.update(sample.truth)
    return frozenset(labels)
