"""Multi-label metrics: frozen hand-computed values and oracle equivalence."""

from __future__ import annotations

import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import LABEL_ORDER, brute_force_metrics
from vulnprompt.config import from_plain, to_plain
from vulnprompt.labels import label_set
from vulnprompt.metrics import (
    LabeledPair,
    MetricsError,
    MetricsReport,
    report,
)


def pair(truth, pred):
    return LabeledPair(truth=label_set(truth), pred=label_set(pred))


TWO_PAIR_EXAMPLE = [
    pair(["CWE-119", "CWE-476"], ["CWE-119"]),
    pair(["CWE-120"], ["CWE-120", "CWE-469"]),
]


def test_two_pair_example_frozen_values():
    result = report(TWO_PAIR_EXAMPLE)
    assert result.subset_accuracy == 0.0
    assert result.hamming_accuracy == 0.75
    assert result.partial_match_accuracy == 0.5
    assert (result.tp, result.fp, result.fn, result.tn) == (2, 1, 1, 4)
    assert result.micro_precision == pytest.approx(2 / 3, abs=1e-15)
    assert result.micro_recall == pytest.approx(2 / 3, abs=1e-15)
    assert result.micro_f1 == pytest.approx(2 / 3, abs=1e-15)


def test_subset_accuracy_half():
    pairs = [pair(["CWE-119"], ["CWE-119"]), pair(["CWE-120"], ["CWE-469"])]
    assert report(pairs).subset_accuracy == 0.5


def test_all_exact_matches():
    pairs = [pair(["CWE-119"], ["CWE-119"]), pair(["CWE-469", "CWE-476"], ["CWE-476", "CWE-469"])]
    result = report(pairs)
    assert result.subset_accuracy == 1.0
    assert result.hamming_accuracy == 1.0
    assert result.partial_match_accuracy == 1.0
    assert result.micro_precision == 1.0
    assert result.micro_recall == 1.0
    assert result.micro_f1 == 1.0


def test_empty_prediction_degenerate():
    pairs = [pair(["CWE-119", "CWE-120", "CWE-469", "CWE-476"], [])]
    result = report(pairs)
    assert result.hamming_accuracy == 0.0
    assert (result.micro_precision, result.micro_recall, result.micro_f1) == (0.0, 0.0, 0.0)


def test_partial_match_empty_empty_scores_one():
    pairs = [LabeledPair(truth=frozenset(), pred=frozenset())]
    assert report(pairs).partial_match_accuracy == 1.0
    assert report(pairs).partial_match_vs_truth == 1.0


def test_partial_match_vs_truth_normalizes_by_truth():
    pairs = [pair(["CWE-119", "CWE-476"], ["CWE-119", "CWE-120"])]
    assert report(pairs).partial_match_accuracy == pytest.approx(1 / 3)
    assert report(pairs).partial_match_vs_truth == pytest.approx(1 / 2)


def test_disjoint_prediction_contributes_zero():
    pairs = [pair(["CWE-119"], ["CWE-120"]), pair(["CWE-469"], ["CWE-469"])]
    assert report(pairs).partial_match_accuracy == 0.5


def test_empty_input_rejected():
    with pytest.raises(MetricsError):
        report([])


def test_report_counts_identity():
    result = report(TWO_PAIR_EXAMPLE)
    assert result.tp + result.fp + result.fn + result.tn == result.n_instances * 4
    assert result.n_labels == 4


def test_report_json_round_trip():
    result = report(TWO_PAIR_EXAMPLE)
    assert from_plain(MetricsReport, to_plain(result)) == result


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"n_instances": 0}, "n_instances must be >= 1, got 0"),
        ({"micro_f1": 5}, "micro_f1 must be in [0, 1], got 5"),
        ({"subset_accuracy": -0.25}, "subset_accuracy must be in [0, 1], got -0.25"),
        ({"micro_recall": math.nan}, "micro_recall must be in [0, 1], got nan"),
        ({"fp": -1, "tn": 6}, "tp, fp, fn, tn must be >= 0 and sum to 8, got (2, -1, 1, 6)"),
        ({"tn": 5}, "tp, fp, fn, tn must be >= 0 and sum to 8, got (2, 1, 1, 5)"),
    ],
    ids=["no-instances", "rate-above-1", "negative-rate", "nan-rate", "negative-count",
         "counts-off"],
)
def test_report_out_of_range_rejected(overrides, message):
    values = {**to_plain(report(TWO_PAIR_EXAMPLE)), **overrides}
    with pytest.raises(MetricsError, match=re.escape(message)):
        MetricsReport(**values)


def random_pairs(rng, max_n=50):
    n = rng.randint(1, max_n)
    pairs = []
    for _ in range(n):
        truth = [l for l in LABEL_ORDER if rng.random() < 0.4]
        pred = [l for l in LABEL_ORDER if rng.random() < 0.4]
        pairs.append((truth, pred))
    return pairs


def as_label_pairs(raw):
    return [pair(truth, pred) for truth, pred in raw]


def test_matches_brute_force_oracle_sample():
    rng = random.Random(2024)
    for _ in range(25):
        raw = random_pairs(rng)
        expected = brute_force_metrics(raw)
        actual = report(as_label_pairs(raw))
        assert abs(actual.subset_accuracy - expected["subset_accuracy"]) <= 1e-12
        assert abs(actual.hamming_accuracy - expected["hamming_accuracy"]) <= 1e-12
        assert (
            abs(actual.partial_match_accuracy - expected["partial_match_accuracy"])
            <= 1e-12
        )
        assert abs(actual.micro_precision - expected["micro_precision"]) <= 1e-12
        assert abs(actual.micro_recall - expected["micro_recall"]) <= 1e-12
        assert abs(actual.micro_f1 - expected["micro_f1"]) <= 1e-12
        assert (actual.tp, actual.fp, actual.fn, actual.tn) == (
            expected["tp"],
            expected["fp"],
            expected["fn"],
            expected["tn"],
        )


_pair_strategy = st.tuples(
    st.sets(st.sampled_from(LABEL_ORDER)), st.sets(st.sampled_from(LABEL_ORDER))
)
_pairs_strategy = st.lists(_pair_strategy, min_size=1, max_size=30)


@settings(max_examples=150, deadline=None)
@given(_pairs_strategy)
def test_oracle_equivalence_property(raw):
    expected = brute_force_metrics(raw)
    actual = report(as_label_pairs(raw))
    for name in (
        "subset_accuracy",
        "hamming_accuracy",
        "partial_match_accuracy",
        "micro_precision",
        "micro_recall",
        "micro_f1",
    ):
        assert abs(getattr(actual, name) - expected[name]) <= 1e-12


@settings(max_examples=150, deadline=None)
@given(_pairs_strategy)
def test_ordering_invariants_property(raw):
    result = report(as_label_pairs(raw))
    assert result.subset_accuracy <= result.partial_match_accuracy + 1e-15
    values = (
        result.subset_accuracy,
        result.hamming_accuracy,
        result.partial_match_accuracy,
        result.micro_precision,
        result.micro_recall,
        result.micro_f1,
    )
    for value in values:
        assert 0.0 <= value <= 1.0
    p, r = result.micro_precision, result.micro_recall
    if p + r > 0:
        assert min(p, r) - 1e-15 <= result.micro_f1 <= max(p, r) + 1e-15
    assert (result.hamming_accuracy == 1.0) == (result.subset_accuracy == 1.0)


@settings(max_examples=80, deadline=None)
@given(_pairs_strategy, st.randoms(use_true_random=False))
def test_permutation_invariance(raw, rng):
    pairs = as_label_pairs(raw)
    shuffled = list(pairs)
    rng.shuffle(shuffled)
    assert report(shuffled) == report(pairs)
