"""CWE label vocabulary shared by every layer of the package.

Predictions and ground truth are subsets of four admissible categories;
anything else is rejected here, at the type boundary.
"""

from __future__ import annotations

import enum
import functools
from collections.abc import Iterable


class UnknownLabelError(ValueError):
    """A label string is not one of the four admissible CWE codes."""


class CweLabel(enum.Enum):
    CWE_119 = "CWE-119"  # buffer overflow
    CWE_120 = "CWE-120"  # stack-based buffer overflow
    CWE_469 = "CWE-469"  # pointer arithmetic error
    CWE_476 = "CWE-476"  # null pointer dereference

    @property
    def number(self) -> int:
        return int(self.value.split("-", 1)[1])


ALL_LABELS: tuple[CweLabel, ...] = tuple(sorted(CweLabel, key=lambda label: label.number))

# Each label by its CWE number as a digit string: "119" -> CweLabel.CWE_119.
LABEL_BY_NUMBER: dict[str, CweLabel] = {str(label.number): label for label in CweLabel}

# Each label by its code: "CWE-119" -> CweLabel.CWE_119.
LABEL_BY_CODE: dict[str, CweLabel] = {label.value: label for label in CweLabel}


def parse_label(code: str) -> CweLabel:
    """Map a label string such as "CWE-119" to its enum member.

    Raises UnknownLabelError for anything outside the four-category vocabulary.
    """
    try:
        return CweLabel(code)
    except ValueError:
        raise UnknownLabelError(f"not an in-scope CWE label: {code!r}") from None


def label_set(codes: Iterable[str]) -> frozenset[CweLabel]:
    """Build a deduplicated label set, rejecting out-of-scope codes."""
    return frozenset(parse_label(code) for code in codes)


def label_codes(labels: Iterable[CweLabel]) -> list[str]:
    """Label codes in ascending numeric order, duplicates collapsed.

    A fresh list each call, copied from a tuple memoised per label set.
    """
    return list(_label_set_codes(frozenset(labels)))


def format_labels(labels: Iterable[CweLabel]) -> str:
    """Render labels as "CWE-119, CWE-476" (ascending numeric order).

    Duplicates collapse. The string is memoised per label set; with four
    labels there are only sixteen sets.
    """
    return _format_label_set(frozenset(labels))


@functools.cache
def _label_set_codes(labels: frozenset) -> tuple:
    return tuple(label.value for label in ALL_LABELS if label in labels)


@functools.cache
def _format_label_set(labels: frozenset) -> str:
    return ", ".join(_label_set_codes(labels))
