#!/usr/bin/env python3
"""Run the full strategy x shot-count sweep on the synthetic corpus, offline.

Uses the hashed embedding backend and a mock provider, so no network or API
key is needed. Emits the standard run artifacts plus the comparison table on
stdout. Good as a smoke test of the whole pipeline and as a template for
configuring real runs.

Fails the way `vulnprompt` does: a usage or configuration error exits 1 and
a data error (such as fewer than five samples per label, which leaves no test
split) exits 3, each with an `error:` line on stderr and no traceback.
"""

from __future__ import annotations

import sys
from pathlib import Path

from vulnprompt.cli import _at_least_one, _Parser, _run_command
from vulnprompt.config import DEFAULT_SHOT_COUNTS, ExperimentConfig, ProviderSettings
from vulnprompt.corpus import dump_jsonl, validate
from vulnprompt.prompting import Strategy
from vulnprompt.runner import emit_curves, emit_table, run
from vulnprompt.synthetic import make_synthetic_corpus


def parse_args(argv=None):
    parser = _Parser(description=__doc__)
    parser.add_argument("--seed", type=int, default=7, help="corpus generator seed")
    parser.add_argument("--n-per-label", type=_at_least_one, default=25)
    parser.add_argument("--run-seed", type=int, default=0, help="shot selection seed")
    parser.add_argument(
        "--mock",
        choices=("parrot", "oracle"),
        default="parrot",
        help="offline provider: parrot echoes the first shot, oracle answers truth",
    )
    parser.add_argument(
        "--out", type=Path, default=Path("runs/synthetic"), help="output directory"
    )
    parser.add_argument(
        "--shot-counts",
        type=int,
        nargs="+",
        default=list(DEFAULT_SHOT_COUNTS),
        help="k values for the few-shot strategies",
    )
    return parser.parse_args(argv)


def sweep(args) -> int:
    args.out.mkdir(parents=True, exist_ok=True)

    corpus = make_synthetic_corpus(seed=args.seed, n_per_label=args.n_per_label)
    corpus_path = args.out / "corpus.jsonl"
    dump_jsonl(corpus, corpus_path)
    summary = validate(corpus)
    print(
        f"synthetic corpus: {summary.train_size} train / {summary.test_size} test "
        f"(seed {args.seed}, n_per_label {args.n_per_label})"
    )

    # The parrot cannot answer a zero-shot prompt, so that strategy only
    # joins the sweep when the oracle mock is selected.
    strategies = (
        Strategy.RANDOM_FEW_SHOT,
        Strategy.RETRIEVAL_FEW_SHOT,
        Strategy.RETRIEVAL_LABELING,
    )
    if args.mock == "oracle":
        strategies = (Strategy.ZERO_SHOT,) + strategies

    config = ExperimentConfig(
        corpus_path=str(corpus_path),
        output_dir=str(args.out),
        cache_dir=str(args.out / "cache"),
        provider=ProviderSettings(type=args.mock),
        strategies=strategies,
        shot_counts=tuple(args.shot_counts),
        seed=args.run_seed,
    )
    report = run(config)

    print()
    print(emit_table(report), end="")
    print()
    print(f"provider calls: {report.provider_calls}")
    print(f"wall clock: {report.metadata['wall_clock_s']:.2f}s")
    print(f"artifacts: {args.out}/records.jsonl, report.json, report.csv")

    curves = emit_curves(report)
    series = curves["micro_f1"]
    print()
    print("micro F1 by shot count:")
    for strategy, points in series.items():
        rendered = "  ".join(f"k={k}: {value:.4f}" for k, value in points)
        print(f"  {strategy:20s} {rendered}")
    return 0


def main(argv=None) -> int:
    return _run_command(sweep, parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
