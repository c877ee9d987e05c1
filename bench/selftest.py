#!/usr/bin/env python3
"""Self-test of the benchmark harness at tiny corpus sizes (under a minute).

    python3 bench/selftest.py

1. Runs every workload once untraced and once traced at n_per_label 5 and
   checks the exit code, the JSON result and that every metric name is
   printed.
2. Shows the correctness gate is not vacuous: a copy of a sweep's output
   directory with one flipped prediction must fail it, and so must the
   untouched outputs when compared with a reference digest they do not match.
3. Shows the traced run fails loudly when a wrap point records no spans, as
   it would after a renamed import in runner.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench_run  # noqa: E402
import tracing  # noqa: E402
from workloads import ROOT, WORKLOADS, import_package, scaled  # noqa: E402

N_PER_LABEL = 5
SEED = 3


def check(condition: bool, message: str, failures: list) -> None:
    print(f"{'PASS' if condition else 'FAIL'}: {message}", flush=True)
    if not condition:
        failures.append(message)


def harness_runs(declared: dict, failures: list) -> None:
    for name in WORKLOADS:
        for trace in (0, 1):
            command = [
                sys.executable, str(HERE / "run.py"),
                "--workload", name, "--seed", str(SEED), "--seconds", "1",
                "--trace", str(trace), "--n-per-label", str(N_PER_LABEL),
            ]
            proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=170)
            label = f"{name} trace={trace}"
            check(proc.returncode == 0, f"{label} exits 0 ({proc.stderr.strip()[-300:]})", failures)
            lines = proc.stdout.strip().splitlines()
            if not lines:
                check(False, f"{label} printed a result", failures)
                continue
            result = json.loads(lines[-1])
            check(result["correct"] and result["failed"] == 0, f"{label} passes its gate", failures)
            section = "per_layer" if trace else "end_to_end"
            wanted = {m["name"] for m in declared[section]}
            check(set(result["metrics"]) == wanted, f"{label} JSON has exactly the {section} metrics", failures)
            table = "\n".join(lines[:-1])
            names = list(bench_run.E2E_UNITS) + (list(tracing.LAYER_METRICS) if trace else [])
            absent = [n for n in names if f" {n} " not in table]
            check(not absent, f"{label} prints every metric by name {absent or ''}", failures)


def flipped_prediction_fails(failures: list) -> None:
    from sweep import check_outputs, gated_digest_keys, prepare, run_sweep

    for name, workload in WORKLOADS.items():
        workload = scaled(workload, N_PER_LABEL)
        work = bench_run.WORK_DIR / "selftest" / name
        inputs = prepare(workload, SEED, work / "setup")
        cache_dir = work / "cache" if workload.cache == "empty" else None
        result = run_sweep(workload, SEED, inputs, work / "out", cache_dir=cache_dir)
        check(not result["errors"], f"{name}: untouched sweep passes the gate {result['errors']}", failures)
        fill = inputs.get("fill_cells_sha256")
        for key in gated_digest_keys(workload):
            reference = {k: result["digests"][k] for k in gated_digest_keys(workload)}
            reference[key] = "0" * 64
            stale = check_outputs(workload, inputs["corpus_path"], work / "out", fill_cells_sha256=fill, reference=reference)
            check(bool(stale["errors"]), f"{name}: a reference {key} the outputs do not match fails the gate", failures)

        shutil.copytree(work / "out", work / "flipped")
        records_path = work / "flipped" / "records.jsonl"
        lines = records_path.read_text(encoding="utf-8").splitlines()
        record = json.loads(lines[0])
        record["pred"] = ["CWE-469"] if record["pred"] != ["CWE-469"] else ["CWE-476"]
        lines[0] = json.dumps(record, sort_keys=True)
        records_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        flipped = check_outputs(
            workload, inputs["corpus_path"], work / "flipped", fill_cells_sha256=fill,
        )
        check(bool(flipped["errors"]), f"{name}: one flipped prediction fails the gate {flipped['errors']}", failures)


def unhit_wrap_point_fails(failures: list) -> None:
    from sweep import prepare, run_sweep

    workload = scaled(WORKLOADS["retrieval_scale"], N_PER_LABEL)
    work = bench_run.WORK_DIR / "selftest" / "unhit"
    inputs = prepare(workload, SEED, work / "setup")
    # As if runner stopped calling top_k by that name: nothing wraps it.
    saved = dict(tracing.RUNNER_ATTRS)
    del tracing.RUNNER_ATTRS["top_k"]
    try:
        result = run_sweep(workload, SEED, inputs, work / "out", trace=True)
    finally:
        tracing.RUNNER_ATTRS.clear()
        tracing.RUNNER_ATTRS.update(saved)
    check(
        any("vecindex.top_k" in e for e in result["errors"]),
        f"a wrap point with no spans fails the traced sweep {result['errors']}",
        failures,
    )


def main() -> int:
    os.chdir(ROOT)
    import_package()
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    failures: list = []
    try:
        harness_runs(declared, failures)
        flipped_prediction_fails(failures)
        unhit_wrap_point_fails(failures)
    finally:
        shutil.rmtree(bench_run.WORK_DIR / "selftest", ignore_errors=True)
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
