"""Label vocabulary: parsing, scope checks, and canonical formatting."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from vulnprompt.labels import (
    ALL_LABELS,
    CweLabel,
    UnknownLabelError,
    format_labels,
    is_in_scope,
    label_codes,
    label_set,
    parse_label,
    sorted_labels,
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


def test_is_in_scope():
    assert is_in_scope("CWE-120")
    assert not is_in_scope("CWE-787")
    assert not is_in_scope("CWE-0119")


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


@given(st.sets(st.sampled_from(list(CweLabel))))
def test_sorted_labels_is_ascending(labels):
    ordered = sorted_labels(labels)
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
