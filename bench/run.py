#!/usr/bin/env python3
"""Offline sweep benchmark for vulnprompt: one workload, one seed, one run.

    python3 bench/run.py --workload sweep_cold_remote --seed 7 --seconds 30 --trace 0

Sweeps run one at a time, each in a fresh `bench/sweep.py` process, until
they have taken `--seconds` (default: BENCHMARK.json's `run_seconds`) and at
least three have run. Before each sweep this process runs the workload's
set-up (corpus, and where the workload needs them a saved index and a filled
cache) a few more times, up to the workload's limit; `setup_s` is the median
of those set-ups and the sweeps all read the first one's files. Every sweep
passes the correctness gate in `sweep.check_outputs`, including the committed
reference digests for its workload and seed where `bench/reference_digests.json`
has them, and all sweeps of a run must write byte-identical records and
payloads. A failed check exits 1. The run works under `.bench_work/` in the
checkout; when it ends, only a traced run's spans
(`.bench_work/<workload>-seed<n>.spans.jsonl`) are left there.

With `--trace 1`, every second sweep runs with span tracing installed
(`bench/tracing.py`); per-layer metrics are medians over the traced sweeps
and `trace.overhead_frac` compares them with the untraced ones.

The human-readable table comes first; the last line of standard output is
the JSON result with the metrics BENCHMARK.json lists for the mode.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
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
    ROOT,
    SRC,
    WORKLOADS,
    expected_cells,
    import_package,
    scaled,
)
from sweep import gated_digest_keys, load_reference, prepare  # noqa: E402

# Relative to the checkout root, which is the working directory of every
# step, so the paths recorded in a run's payload are the same in any checkout.
WORK_DIR = Path(".bench_work")
# A run must end within 180 s; a sweep that hangs is killed at this deadline.
RUN_DEADLINE_S = 170
MIN_SWEEPS = 3
MIN_SWEEPS_TRACED = 4

E2E_UNITS = {
    "setup_s": "s",
    "sweep_s": "s",
    "records_per_s": "1/s",
    "provider_calls": "count",
    "failed_frac": "ratio",
    "peak_rss_mb": "MB",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7, help="corpus and shot-selection seed")
    parser.add_argument(
        "--seconds",
        type=float,
        default=None,
        help="sweep time to measure (default: run_seconds from BENCHMARK.json)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--n-per-label",
        type=int,
        default=None,
        help="override the workload's corpus size (for smoke tests only)",
    )
    return parser.parse_args(argv)


def run_sweep_process(spec: dict, timeout_s: float) -> dict:
    """Run one sweep in a child process and return its JSON result."""
    command = [sys.executable, str(HERE / "sweep.py"), json.dumps(spec)]
    try:
        proc = subprocess.run(
            command,
            cwd=ROOT,
            env={**os.environ, **BENCH_ENV},
            capture_output=True,
            text=True,
            timeout=timeout_s,
        )
    except subprocess.TimeoutExpired:
        return {"errors": [f"sweep did not finish within {timeout_s:.0f} s"]}
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        tail = proc.stderr.strip()[-2000:]
        return {"errors": [f"sweep exited {proc.returncode} without a result: {tail}"]}
    if proc.returncode != 0:
        result.setdefault("errors", []).append(f"sweep exited {proc.returncode}")
    return result


def sweep_spec(workload, seed: int, n_per_label, inputs: dict, work: Path, traced: bool, reference) -> dict:
    """What one sweep process needs. Its output paths are the same for every
    sweep of a workload and seed, since the payload records them."""
    return {
        "workload": workload.name,
        "n_per_label": n_per_label,
        "seed": seed,
        "inputs": inputs,
        "output_dir": str(work / "out"),
        "cache_dir": str(work / "cache") if workload.cache == "empty" else None,
        "trace": traced,
        "spans_path": str(work / "spans.jsonl") if traced else None,
        "reference": reference,
    }


def identical_output_errors(workload, sweeps: list) -> tuple:
    """Require byte-identical outputs across the run's sweeps.

    The digests `sweep.gated_digest_keys` names must agree; the full digests
    of the cold workload only give a note. Returns (errors, notes).
    """
    strict = gated_digest_keys(workload)
    informative = tuple(k for k in ("records_sha256", "payload_sha256") if k not in strict)
    errors, notes = [], []
    for key in strict:
        if len({s["digests"][key] for s in sweeps}) > 1:
            errors.append(f"{key} differs across sweeps of one workload and seed")
    for key in informative:
        if len({s["digests"][key] for s in sweeps}) > 1:
            notes.append(f"{key} differs across sweeps (in-flight duplicate prompts raced the cache)")
    return errors, notes


def median_of(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def end_to_end(setup_times: list, sweeps: list) -> dict:
    untraced = [s for s in sweeps if not s["traced"]]
    sweep_s = statistics.median(s["sweep_s"] for s in untraced)
    records = sum(s["records"] for s in untraced)
    return {
        "setup_s": statistics.median(setup_times),
        "sweep_s": sweep_s,
        "records_per_s": untraced[0]["records"] / sweep_s,
        "provider_calls": statistics.median(s["provider_calls"] for s in untraced),
        "failed_frac": sum(s["failed_records"] for s in untraced) / records,
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in untraced),
    }


def per_layer(sweeps: list, e2e: dict) -> dict:
    traced = [s for s in sweeps if s["traced"]]
    metrics = {
        name: median_of(s["layers"][name] for s in traced)
        for name in traced[0]["layers"]
    }
    traced_sweep_s = statistics.median(s["sweep_s"] for s in traced)
    metrics["trace.overhead_frac"] = traced_sweep_s / e2e["sweep_s"] - 1.0
    return metrics


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, int) or float(value).is_integer():
        return f"{value:.0f}"
    return f"{value:.6g}"


def print_tables(workload, seed, setup_times, sweeps, e2e, layers, notes, reference) -> None:
    untraced = [s for s in sweeps if not s["traced"]]
    first = untraced[0]
    print(
        f"workload {workload.name}  seed {seed}  n_per_label {workload.n_per_label}  "
        f"cells {expected_cells(workload)}  records/sweep {first['records']}"
    )
    times = [s["sweep_s"] for s in untraced]
    calls = [s["provider_calls"] for s in untraced]
    detail = {
        "setup_s": f"median of {len(setup_times)} set-ups, min {min(setup_times):.4f}, max {max(setup_times):.4f}",
        "sweep_s": f"median of {len(times)} sweeps, min {min(times):.4f}, max {max(times):.4f}",
        "provider_calls": f"min {min(calls)}, max {max(calls)}",
        "failed_frac": f"{first['failed_records']} of {first['records']} records per sweep",
        "peak_rss_mb": "median peak RSS of the sweep processes",
    }
    print("end-to-end (untraced sweeps):")
    for name, unit in E2E_UNITS.items():
        print(f"  {name:<16} {_fmt(e2e[name]):>14} {unit:<6} {detail.get(name, '')}")
    print(f"  payload_sha256   {first['digests']['payload_sha256']}")
    print(f"  records_sha256   {first['digests']['records_sha256']}")
    if "endpoint" in first:
        counts = ", ".join(f"{k} {v}" for k, v in first["endpoint"].items())
        print(f"  endpoint side    {counts}")
    print(f"  reference        {'matched' if reference else 'none committed for this workload, size and seed'}")
    for note in notes:
        print(f"  note: {note}")
    if layers is None:
        return
    traced = [s for s in sweeps if s["traced"]]
    print(f"per-layer (median of {len(traced)} traced sweeps; -> end-to-end metric on workload it should move):")
    for name, (unit, _, moves) in tracing.LAYER_METRICS.items():
        targets = ", ".join(f"{m}@{w}" for m, w in moves)
        print(f"  {name:<32} {_fmt(layers[name]):>14} {unit:<6} -> {targets}")
    print("wrap points (calls, inclusive s, self s; median over traced sweeps):")
    for point in tracing.WRAP_POINTS:
        calls = median_of(s["wrap_calls"][point] for s in traced)
        total = median_of(s["wrap_total_s"][point] for s in traced)
        own = median_of(s["wrap_self_s"][point] for s in traced)
        print(f"  {point:<32} {_fmt(calls):>10} {_fmt(total):>12} {_fmt(own):>12}")


def main(argv=None) -> int:
    started = time.perf_counter()
    args = parse_args(argv)
    if not (SRC / "vulnprompt" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    os.environ.update(BENCH_ENV)  # before numpy loads, for the set-up's own sweeps
    import_package()

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = declared["run_seconds"] if args.seconds is None else args.seconds
    workload = scaled(WORKLOADS[args.workload], args.n_per_label)
    reference = load_reference(workload, args.seed)
    work = WORK_DIR / f"{workload.name}-seed{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    errors: list = []
    setup_times: list = []
    sweeps: list = []
    inputs = None
    # Nothing is deleted until timing ends: freeing thousands of cache files
    # makes the file system issue discards and journal commits that would
    # land inside the next timed step. Set-ups write to fresh directories,
    # sweeps always write to the same paths (which their payload records) and
    # the outputs are renamed aside afterwards. Dirty pages are flushed before
    # every timed step for the same reason.
    try:
        min_sweeps = MIN_SWEEPS_TRACED if args.trace else MIN_SWEEPS
        measured_s = 0.0
        while len(sweeps) < min_sweeps or measured_s < seconds:
            setups = workload.setups_per_sweep
            if workload.max_setups is not None:
                setups = min(setups, workload.max_setups - len(setup_times))
            for _ in range(setups):
                os.sync()
                gc.collect()  # every set-up starts from the same heap state
                i = len(setup_times)
                start = time.perf_counter()
                prepared = prepare(workload, args.seed, work / f"setup-{i}")
                setup_times.append(time.perf_counter() - start)
                inputs = inputs or prepared
            os.sync()

            i = len(sweeps)
            traced = bool(args.trace) and i % 2 == 1
            spec = sweep_spec(workload, args.seed, args.n_per_label, inputs, work, traced, reference)
            start = time.perf_counter()
            result = run_sweep_process(spec, RUN_DEADLINE_S - (start - started))
            measured_s += time.perf_counter() - start
            result.setdefault("traced", traced)
            sweeps.append(result)
            done = work / f"done-{i}"
            done.mkdir()
            for name in ("out", "cache"):
                if (work / name).exists():
                    (work / name).rename(done / name)
            if result.get("errors"):
                break
    finally:
        if (work / "spans.jsonl").exists():
            (work / "spans.jsonl").replace(WORK_DIR / f"{workload.name}-seed{args.seed}.spans.jsonl")
        shutil.rmtree(work, ignore_errors=True)
        os.sync()

    failed_sweeps = sum(1 for s in sweeps if s.get("errors"))
    for i, s in enumerate(sweeps):
        errors.extend(f"sweep {i}: {e}" for e in s.get("errors", []))
    notes: list = []
    metrics: dict = {}
    if not errors:
        identity_errors, notes = identical_output_errors(workload, sweeps)
        errors.extend(identity_errors)
        e2e = end_to_end(setup_times, sweeps)
        layers = per_layer(sweeps, e2e) if args.trace else None
        print_tables(workload, args.seed, setup_times, sweeps, e2e, layers, notes, reference)
        section, values = ("per_layer", layers) if args.trace else ("end_to_end", e2e)
        for metric in declared[section]:
            value = values[metric["name"]]
            if value is None:
                errors.append(f"metric {metric['name']} is undefined on {workload.name}")
                continue
            metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    for error in errors:
        print(f"CORRECTNESS GATE FAILED: {error}", file=sys.stderr)
    result = {
        "correct": not errors,
        "attempted": len(sweeps),
        "failed": failed_sweeps,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
