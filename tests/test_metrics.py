"""Multi-label metrics: frozen hand-computed values and oracle equivalence."""

from __future__ import annotations

import itertools
import math
import random
import re
from collections import Counter
from fractions import Fraction

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
    from_table,
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


# Every label set over LABEL_ORDER: 16 truths by 16 predictions, empty ones included.
ALL_SETS = [
    frozenset(codes)
    for size in range(len(LABEL_ORDER) + 1)
    for codes in itertools.combinations(LABEL_ORDER, size)
]


def exact_mean(ratios) -> float:
    """The mean of exact ratios, summed as Fractions and rounded once: the value
    math.fsum gives, divided by the count."""
    return float(sum(ratios, Fraction(0))) / len(ratios)


def assert_table_scores_as_pairs(raw):
    pairs = as_label_pairs(raw)
    table = Counter((p.truth, p.pred) for p in pairs)
    assert len(table) <= 16 * 16
    assert sum(table.values()) == len(pairs)
    scored = from_table(table)
    assert scored == report(pairs)
    expected = brute_force_metrics(raw)
    # The oracle computes these exactly as from_table does, so they agree bit for
    # bit; it sums the Jaccard ratios left to right and takes Hamming accuracy as
    # agreements / slots, so those two agree to rounding.
    for name in ("subset_accuracy", "micro_precision", "micro_recall", "micro_f1",
                 "tp", "fp", "fn", "tn"):
        assert getattr(scored, name) == expected[name], name
    for name in ("hamming_accuracy", "partial_match_accuracy"):
        assert abs(getattr(scored, name) - expected[name]) <= 1e-12, name
    # Each overlap mean is the exact sum rounded once, then divided by n.
    jaccards, truth_overlaps = [], []
    for truth, pred in raw:
        truth, pred = set(truth), set(pred)
        hits, union = len(truth & pred), len(truth | pred)
        jaccards.append(Fraction(hits / union) if union else Fraction(1))
        truth_overlaps.append(
            Fraction(hits / len(truth)) if truth else Fraction(0 if pred else 1)
        )
    assert scored.partial_match_accuracy == exact_mean(jaccards)
    assert scored.partial_match_vs_truth == exact_mean(truth_overlaps)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.tuples(st.sampled_from(ALL_SETS), st.sampled_from(ALL_SETS)), min_size=1,
             max_size=30)
    | st.builds(
        lambda weights, n, seed: random.Random(seed).choices(
            [(t, p) for t in ALL_SETS for p in ALL_SETS], weights=weights, k=n
        ),
        st.lists(st.integers(0, 3), min_size=256, max_size=256).filter(any),
        st.integers(1, 4000),
        st.integers(0, 2**32),
    )
)
def test_a_count_table_scores_as_its_pairs(raw):
    assert_table_scores_as_pairs(raw)


def test_a_count_table_of_every_truth_and_prediction_scores_as_its_pairs():
    every_pair = [(truth, pred) for truth in ALL_SETS for pred in ALL_SETS]
    assert_table_scores_as_pairs(every_pair)
    assert_table_scores_as_pairs(every_pair * 15)  # 3,840 pairs
    assert_table_scores_as_pairs([(truth, frozenset()) for truth in ALL_SETS])


def test_from_table_rejects_an_empty_table_and_a_non_label():
    with pytest.raises(MetricsError, match="at least one pair"):
        from_table({})
    with pytest.raises(MetricsError, match="pred contains non-label value 'CWE-119'"):
        from_table({(label_set(["CWE-119"]), frozenset(["CWE-119"])): 1})
