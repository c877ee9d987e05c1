#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py --seeds 1 2 3 4 5 --workloads retrieval_scale
    python3 bench/spread.py --seeds 1 2 3 4 5 6 7 8 9 10 --baseline bench/baseline.json

For every end-to-end metric it prints the median over the runs and the
distance between the first and third quartile (statistics.quantiles, n=4)
as a share of the median, next to the metric's bound from BENCHMARK.json.
A spread above the bound is marked FAIL and one above a third of the bound
is marked WIDE. `--baseline` also runs one traced run per workload and
writes every value, the environment and the workload and metric definitions
to the given file, keeping the results of workloads not run this time. `--against` compares each median with the one in an
earlier `--baseline` file and marks FAIL a metric that reads worse by more
than its bound:

    python3 bench/spread.py --seeds 11 12 13 14 15 16 17 18 19 20 --against bench/baseline.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from workloads import (  # noqa: E402
    BENCH_ENV,
    EMBED_DIM,
    MAX_IN_FLIGHT,
    RETRY_BASE_DELAY_S,
    ROOT,
    WORKLOADS,
    expected_cells,
    import_package,
)

RUN_TIMEOUT_S = 600


def cpu_ticks() -> tuple:
    """(steal, total) jiffies over all CPUs, from /proc/stat where it exists."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = [int(v) for v in handle.readline().split()[1:]]
    except OSError:
        return (0, 0)
    return (fields[7] if len(fields) > 7 else 0, sum(fields))


def run_once(declared: dict, workload: str, seed: int, trace: int) -> dict:
    command = declared["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(declared["run_seconds"]),
        "--trace", str(trace),
    ]
    start = time.perf_counter()
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    elapsed_s = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(
            f"{workload} seed {seed} trace {trace} exited {proc.returncode}:\n{proc.stderr[-3000:]}"
        )
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: correctness gate failed")
    return {"table": lines[:-1], "elapsed_s": elapsed_s, **result}


def spread(values: list) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else None}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--workloads", nargs="+", default=None)
    parser.add_argument("--baseline", type=Path, default=None)
    parser.add_argument("--against", type=Path, default=None)
    args = parser.parse_args(argv)
    earlier = json.loads(args.against.read_text(encoding="utf-8"))["results"] if args.against else {}

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = args.workloads or [w["name"] for w in declared["workloads"]]
    results: dict = {}
    worst = "ok"
    for name in names:
        ticks_before = cpu_ticks()
        runs = []
        for seed in args.seeds:
            run = run_once(declared, name, seed, trace=0)
            runs.append({
                "seed": seed,
                "elapsed_s": run["elapsed_s"],
                "metrics": {k: v["value"] for k, v in run["metrics"].items()},
                "table": run["table"],
            })
            values = ", ".join(f"{k}={v:.5g}" for k, v in runs[-1]["metrics"].items())
            print(f"{name} seed {seed} ({run['elapsed_s']:.0f} s): {values}", flush=True)
        summary = {}
        for metric in declared["end_to_end"]:
            stats = spread([r["metrics"][metric["name"]] for r in runs])
            bound = metric["bound"]
            verdict = "ok"
            if stats["spread"] > bound:
                verdict = "FAIL"
            elif stats["spread"] > bound / 3:
                verdict = "WIDE"
            against = ""
            if name in earlier:
                before = earlier[name]["end_to_end"][metric["name"]]["median"]
                worse = (stats["median"] - before) / before
                if metric["better"] == "higher":
                    worse = -worse
                against = f"  worse than --against by {worse:+.4f}"
                if worse > bound:
                    verdict = "FAIL"
            if verdict != "ok" and worst != "FAIL":
                worst = verdict
            summary[metric["name"]] = {**stats, "bound": bound, "verdict": verdict}
            print(
                f"  {name:<18} {metric['name']:<14} median {stats['median']:<12.6g} "
                f"IQR/median {stats['spread']:.4f}  bound {bound}{against}  {verdict}",
                flush=True,
            )
        steal = cpu_ticks()[0] - ticks_before[0]
        total = cpu_ticks()[1] - ticks_before[1]
        steal_share = steal / total if total else None
        if steal_share is not None:
            print(f"  CPU time stolen by the host during these runs: {steal_share:.1%}", flush=True)
        results[name] = {"seeds": args.seeds, "host_steal_share": steal_share, "runs": runs, "end_to_end": summary}
        if args.baseline is not None:
            traced = run_once(declared, name, args.seeds[0], trace=1)
            results[name]["traced"] = {
                "seed": args.seeds[0],
                "metrics": {k: v["value"] for k, v in traced["metrics"].items()},
                "table": traced["table"],
            }

    if args.baseline is not None:
        if args.baseline.is_file():
            kept = json.loads(args.baseline.read_text(encoding="utf-8"))["results"]
            results = {**{k: v for k, v in kept.items() if k not in results}, **results}
        import numpy

        import_package()
        baseline = {
            "environment": {
                "nproc": os.cpu_count(),
                "python": platform.python_version(),
                "numpy": numpy.__version__,
                "machine": platform.machine(),
                "run_seconds": declared["run_seconds"],
                "bench_env": BENCH_ENV,
            },
            "workloads": {
                name: {
                    "why": WORKLOADS[name].why,
                    "n_per_label": WORKLOADS[name].n_per_label,
                    "strategies": list(WORKLOADS[name].strategies),
                    "cells": expected_cells(WORKLOADS[name]),
                    "cache": WORKLOADS[name].cache,
                    "persisted_index": WORKLOADS[name].persisted_index,
                    "endpoint_latency_s": WORKLOADS[name].latency_s,
                    "endpoint_fail_per_mille": WORKLOADS[name].fail_per_mille,
                    "setups_per_sweep": WORKLOADS[name].setups_per_sweep,
                    "max_setups": WORKLOADS[name].max_setups,
                    "max_in_flight": MAX_IN_FLIGHT,
                    "embedding": f"hashed, dim {EMBED_DIM}",
                    "retry_base_delay_s": RETRY_BASE_DELAY_S,
                }
                for name in results
            },
            "end_to_end_metrics": declared["end_to_end"],
            "layer_metrics": {
                name: {
                    "unit": unit,
                    "better": better,
                    "moves": [{"metric": m, "workload": w} for m, w in moves],
                    "in_benchmark_json": any(p["name"] == name for p in declared["per_layer"]),
                }
                for name, (unit, better, moves) in tracing.LAYER_METRICS.items()
            },
            "results": results,
        }
        args.baseline.write_text(json.dumps(baseline, indent=2) + "\n", encoding="utf-8")
        print(f"wrote {args.baseline}")
    return 1 if worst == "FAIL" else 0


if __name__ == "__main__":
    sys.exit(main())
