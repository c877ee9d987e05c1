"""Multi-label evaluation metrics over a fixed four-label space.

Six headline numbers: subset accuracy (exact set match), Hamming accuracy
(one minus the per-label disagreement rate over all N * 4 slots), partial
match accuracy (mean per-instance Jaccard |pred & truth| / |pred | truth|),
and micro-averaged precision, recall, and F1. One supplementary ratio, partial
match against truth size (mean |pred & truth| / |truth|), is reported
alongside because per-instance overlap can be normalized two ways and
downstream consumers may want either. An instance whose truth is empty scores
1.0 on both overlaps when its prediction is empty too, else 0.0.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, fields

from .labels import CweLabel

N_LABELS = len(CweLabel)


class MetricsError(ValueError):
    """Raised on empty inputs or out-of-vocabulary label sets."""


@dataclass(frozen=True)
class LabeledPair:
    """Ground truth and prediction for one instance."""

    truth: frozenset
    pred: frozenset

    def __post_init__(self) -> None:
        for name, labels in (("truth", self.truth), ("pred", self.pred)):
            for label in labels:
                if not isinstance(label, CweLabel):
                    raise MetricsError(f"{name} contains non-label value {label!r}")


@dataclass(frozen=True)
class MetricsReport:
    """All metrics for one evaluation cell, as plain floats in [0, 1]."""

    n_instances: int
    n_labels: int
    subset_accuracy: float
    hamming_accuracy: float
    partial_match_accuracy: float
    micro_precision: float
    micro_recall: float
    micro_f1: float
    tp: int
    fp: int
    fn: int
    tn: int
    partial_match_vs_truth: float

    def __post_init__(self) -> None:
        if self.n_instances < 1:
            raise MetricsError(f"n_instances must be >= 1, got {self.n_instances}")
        if self.n_labels != N_LABELS:
            raise MetricsError(f"n_labels must be {N_LABELS}, got {self.n_labels}")
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "float" and not 0 <= value <= 1:  # also false for NaN
                raise MetricsError(f"{f.name} must be in [0, 1], got {value}")
        counts = (self.tp, self.fp, self.fn, self.tn)
        slots = self.n_instances * self.n_labels
        if min(counts) < 0 or sum(counts) != slots:
            raise MetricsError(f"tp, fp, fn, tn must be >= 0 and sum to {slots}, got {counts}")


def rates_from_counts(tp: int, fp: int, fn: int, tn: int) -> dict:
    """Hamming accuracy and the micro averages, which the pooled counts fix.

    A per-label disagreement is a false positive or a false negative, so
    Hamming accuracy is one minus (fp + fn) over all tp + fp + fn + tn slots.
    Zero denominators in the micro averages yield 0.0 rather than an error,
    so degenerate cells (nothing predicted, or nothing true) still score.
    """
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    return dict(
        hamming_accuracy=1.0 - (fp + fn) / (tp + fp + fn + tn),
        micro_precision=precision,
        micro_recall=recall,
        micro_f1=2 * precision * recall / (precision + recall) if precision + recall else 0.0,
    )


def report(pairs) -> MetricsReport:
    """Compute every metric over one list of LabeledPairs: their count table,
    scored by from_table."""
    return from_table(Counter([(p.truth, p.pred) for p in pairs]))


def from_table(counts) -> MetricsReport:
    """Compute every metric from a count table: a mapping from (truth, pred)
    label-set pairs to how many instances hold that pair.

    Exact matches and the pooled confusion cells are integer counts, from
    which rates_from_counts takes four of the metrics. Each overlap mean is
    the exact sum of every instance's ratio, rounded once, then divided by
    the instance count: the value math.fsum over one ratio per instance
    gives, whatever their order.
    """
    exact = tp = fp = fn = 0
    jaccards = []
    truth_overlaps = []
    for (truth, pred), count in counts.items():
        LabeledPair(truth, pred)  # the vocabulary check, once per key
        hits = len(pred & truth)
        union = len(pred | truth)
        exact += count if pred == truth else 0
        tp += count * hits
        fp += count * (len(pred) - hits)
        fn += count * (len(truth) - hits)
        # Empty prediction against empty truth is a full match in both ratios.
        jaccards.append((hits / union if union else 1.0, count))
        truth_overlaps.append((hits / len(truth) if truth else (0.0 if pred else 1.0), count))
    n = sum(counts.values())
    if not n:
        raise MetricsError("metrics need at least one pair")
    tn = n * N_LABELS - tp - fp - fn
    return MetricsReport(
        n_instances=n,
        n_labels=N_LABELS,
        subset_accuracy=exact / n,
        partial_match_accuracy=_sum_of_copies(jaccards) / n,
        tp=tp,
        fp=fp,
        fn=fn,
        tn=tn,
        partial_match_vs_truth=_sum_of_copies(truth_overlaps) / n,
        **rates_from_counts(tp, fp, fn, tn),
    )


def _sum_of_copies(weighted) -> float:
    """The sum of `count` copies of each `value` in (value, count) pairs,
    exact and rounded once to the nearest float, as math.fsum rounds it.

    Each float is an integer over a power of two, so the largest denominator
    is a common one; int / int true division rounds correctly.
    """
    ratios = [(value.as_integer_ratio(), count) for value, count in weighted]
    denominator = max(d for (_, d), _ in ratios)
    return sum(n * (denominator // d) * count for (n, d), count in ratios) / denominator
