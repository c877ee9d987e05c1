"""Label vocabulary: parsing and canonical formatting."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from vulnprompt.config import to_plain
from vulnprompt.labeling import ParseOutcome
from vulnprompt.labels import (
    ALL_LABELS,
    LABEL_BY_NUMBER,
    CweLabel,
    UnknownLabelError,
    format_labels,
    label_codes,
    label_set,
    parse_label,
)


def test_exactly_four_labels():
    assert len(ALL_LABELS) == 4
    assert [label.value for label in ALL_LABELS] == [
        "CWE-119",
        "CWE-120",
        "CWE-469",
        "CWE-476",
    ]


def test_parse_label_accepts_in_scope():
    assert parse_label("CWE-119") is CweLabel.CWE_119
    assert parse_label("CWE-476") is CweLabel.CWE_476


@pytest.mark.parametrize("code", ["CWE-787", "CWE-other", "cwe-119", "119", ""])
def test_parse_label_rejects_out_of_scope(code):
    with pytest.raises(UnknownLabelError):
        parse_label(code)


def test_label_set_deduplicates():
    assert label_set(["CWE-119", "CWE-119", "CWE-476"]) == frozenset(
        {CweLabel.CWE_119, CweLabel.CWE_476}
    )


def test_label_set_rejects_unknown():
    with pytest.raises(UnknownLabelError):
        label_set(["CWE-119", "CWE-787"])


def test_format_labels_ascending_numeric():
    labels = {CweLabel.CWE_476, CweLabel.CWE_119}
    assert format_labels(labels) == "CWE-119, CWE-476"
    assert format_labels([]) == ""


def test_number_property():
    assert CweLabel.CWE_469.number == 469
    assert LABEL_BY_NUMBER == {str(label.number): label for label in ALL_LABELS}


def test_declaration_order_is_numeric_order():
    """to_plain writes a label set in declaration order; records rely on it being numeric."""
    assert tuple(CweLabel) == ALL_LABELS


def test_to_plain_writes_every_label_set_as_label_codes():
    subsets = [frozenset(c) for n in range(5) for c in itertools.combinations(CweLabel, n)]
    assert len(subsets) == 16
    for labels in subsets:
        outcome = ParseOutcome(labels=labels, unknown_mentions=(), empty_parse=False)
        assert to_plain(outcome)["labels"] == label_codes(labels)


@given(st.sets(st.sampled_from(list(CweLabel))))
def test_label_codes_are_ascending(labels):
    ordered = [parse_label(code) for code in label_codes(labels)]
    numbers = [label.number for label in ordered]
    assert numbers == sorted(numbers)
    assert set(ordered) == labels


@given(st.sets(st.sampled_from(list(CweLabel)), min_size=1))
def test_format_round_trips_through_codes(labels):
    assert label_set(label_codes(labels)) == frozenset(labels)


def test_label_codes_returns_a_fresh_list_each_call():
    labels = frozenset({CweLabel.CWE_476, CweLabel.CWE_119})
    codes = label_codes(labels)
    codes.append("CWE-999")
    assert label_codes(labels) == ["CWE-119", "CWE-476"]
    assert label_codes([CweLabel.CWE_469, CweLabel.CWE_469]) == ["CWE-469"]
