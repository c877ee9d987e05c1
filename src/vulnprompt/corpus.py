"""Corpus ingestion for multi-label vulnerability detection.

The on-disk format is JSONL with one record per function:

    {"id": "...", "code": "...", "labels": ["CWE-119", ...], "split": "train"}

Only vulnerable functions carry information for this task, so records whose
label set is empty (or becomes empty once out-of-scope codes are removed) are
dropped during ingestion and counted in the stats.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from .fileio import atomic_write_text, is_utf8_text
from .labels import ALL_LABELS, LABEL_BY_CODE, CweLabel, label_codes

SPLITS = ("train", "test")
FIELDS = ("id", "code", "labels", "split")


class IngestError(ValueError):
    """Raised when a corpus file violates the record contract."""


@dataclass(frozen=True)
class CodeSample:
    """One vulnerable function with its ground-truth label set."""

    id: str
    code: str
    truth: frozenset[CweLabel]

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("sample id must be non-empty")
        if not self.code.strip():
            raise ValueError(f"sample {self.id!r}: code must be non-empty")
        if not self.truth:
            raise ValueError(f"sample {self.id!r}: truth must be non-empty")


@dataclass(frozen=True)
class IngestStats:
    """Bookkeeping from one ingestion pass."""

    total_records: int
    retained: int
    dropped_non_vulnerable: int
    dropped_out_of_scope_only: int
    out_of_scope_counts: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Corpus:
    """Train and test samples with disjoint identifiers."""

    train: tuple
    test: tuple
    stats: IngestStats | None = None

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for sample in self.samples:
            if sample.id in seen:
                raise ValueError(f"duplicate sample id across corpus: {sample.id!r}")
            seen.add(sample.id)

    @property
    def samples(self) -> tuple:
        return self.train + self.test

    def by_id(self) -> dict:
        return {sample.id: sample for sample in self.samples}


@dataclass(frozen=True)
class ValidationReport:
    train_size: int
    test_size: int
    label_counts: dict
    warnings: tuple


def ingest(path: str | Path) -> Corpus:
    """Read a JSONL corpus file, filter labels to scope, and split records.

    Blank lines are skipped. Bytes that are not UTF-8, malformed JSON,
    missing fields, duplicate ids, and unknown split names raise IngestError
    naming the file and the offending line.
    """
    train: list[CodeSample] = []
    test: list[CodeSample] = []
    seen_ids: set[str] = set()
    total = 0
    dropped_non_vulnerable = 0
    dropped_out_of_scope_only = 0
    out_of_scope: Counter = Counter()

    if Path(path).is_dir():
        raise IngestError(f"corpus path {path} is a directory, not a JSONL file")
    with open(path, encoding="utf-8", errors="surrogateescape") as handle:
        for line_no, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            total += 1
            try:
                # Read under errors="surrogateescape", each byte that is not
                # UTF-8 becomes a lone surrogate, which no valid UTF-8 decodes to.
                if not is_utf8_text(line):
                    raise IngestError("not UTF-8 text")
                record = json.loads(line)
                if not isinstance(record, dict):
                    raise IngestError("record must be a JSON object")
                for key in FIELDS:
                    if key not in record:
                        raise IngestError(f"missing field {key!r}")
                sample_id, code, labels, split = map(record.get, FIELDS)
                if not isinstance(sample_id, str) or not sample_id:
                    raise IngestError("id must be a non-empty string")
                if sample_id in seen_ids:
                    raise IngestError(f"duplicate id {sample_id!r}")
                if not isinstance(code, str) or not code.strip():
                    raise IngestError("code must be a non-empty string")
                # A JSON escape such as \ud800 decodes to a lone surrogate.
                for key, text in (("id", sample_id), ("code", code)):
                    if not is_utf8_text(text):
                        raise IngestError(f"{key} is not UTF-8 text: it holds a lone surrogate")
                if not isinstance(labels, list) or not all(isinstance(item, str) for item in labels):
                    raise IngestError("labels must be a list of strings")
                if split not in SPLITS:
                    raise IngestError(f"unknown split {split!r}")
            except json.JSONDecodeError as exc:
                raise IngestError(f"{path}: line {line_no}: malformed JSON: {exc}") from None
            except IngestError as exc:
                raise IngestError(f"{path}: line {line_no}: {exc}") from None
            seen_ids.add(sample_id)

            if not labels:
                dropped_non_vulnerable += 1
                continue
            truth = set()
            for code_ in labels:
                label = LABEL_BY_CODE.get(code_)
                if label is None:
                    out_of_scope[code_] += 1
                else:
                    truth.add(label)
            if not truth:
                dropped_out_of_scope_only += 1
                continue

            sample = CodeSample(id=sample_id, code=code, truth=frozenset(truth))
            (train if split == "train" else test).append(sample)

    stats = IngestStats(
        total_records=total,
        retained=len(train) + len(test),
        dropped_non_vulnerable=dropped_non_vulnerable,
        dropped_out_of_scope_only=dropped_out_of_scope_only,
        out_of_scope_counts=dict(out_of_scope),
    )
    return Corpus(train=tuple(train), test=tuple(test), stats=stats)


def validate(corpus: Corpus) -> ValidationReport:
    """Summarize a corpus and flag cross-split duplicate code as leakage."""
    label_counts = {
        split: {label.value: 0 for label in ALL_LABELS} for split in SPLITS
    }
    for split, samples in (("train", corpus.train), ("test", corpus.test)):
        for sample in samples:
            for label in sample.truth:
                label_counts[split][label.value] += 1

    warnings: list[str] = []
    train_by_code: dict = {}
    for sample in corpus.train:
        train_by_code.setdefault(sample.code, []).append(sample.id)
    for sample in corpus.test:
        if sample.code in train_by_code:
            partners = ", ".join(repr(i) for i in train_by_code[sample.code])
            warnings.append(
                f"test sample {sample.id!r} duplicates train code of [{partners}]"
            )
    if not corpus.train:
        warnings.append("train split is empty")
    if not corpus.test:
        warnings.append("test split is empty")

    return ValidationReport(
        train_size=len(corpus.train),
        test_size=len(corpus.test),
        label_counts=label_counts,
        warnings=tuple(warnings),
    )


def dump_jsonl(corpus: Corpus, path: str | Path) -> None:
    """Write a corpus back to the JSONL record format."""
    lines = []
    for split, samples in (("train", corpus.train), ("test", corpus.test)):
        for sample in samples:
            lines.append(
                json.dumps(
                    {
                        "id": sample.id,
                        "code": sample.code,
                        "labels": label_codes(sample.truth),
                        "split": split,
                    },
                    sort_keys=True,
                )
            )
    atomic_write_text(path, "\n".join(lines) + "\n")
