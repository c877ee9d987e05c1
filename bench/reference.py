#!/usr/bin/env python3
"""Write the reference output digests the correctness gate compares against.

    python3 bench/reference.py --seeds 0 1 2 3

For every workload and seed it runs one set-up and one sweep, exactly as
`bench/run.py` does (same work directory, same paths in the payload), and
stores the digests `sweep.gated_digest_keys` names in
`bench/reference_digests.json`, keyed by workload, n_per_label and seed.
Existing entries for other keys are kept. Regenerate only when a change is
meant to alter the outputs, and say so where the change is described.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench_run  # noqa: E402
from sweep import REFERENCE_PATH, gated_digest_keys, prepare, reference_key  # noqa: E402
from workloads import BENCH_ENV, ROOT, WORKLOADS, import_package  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--workloads", nargs="+", default=sorted(WORKLOADS), choices=sorted(WORKLOADS))
    args = parser.parse_args(argv)

    os.chdir(ROOT)
    os.environ.update(BENCH_ENV)
    import_package()
    import numpy

    data = {"digests": {}}
    if REFERENCE_PATH.is_file():
        data = json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))
    data["environment"] = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }
    for name in args.workloads:
        workload = WORKLOADS[name]
        for seed in args.seeds:
            work = bench_run.WORK_DIR / f"{name}-seed{seed}"
            shutil.rmtree(work, ignore_errors=True)
            try:
                inputs = prepare(workload, seed, work / "setup-0")
                spec = bench_run.sweep_spec(workload, seed, None, inputs, work, traced=False, reference=None)
                result = bench_run.run_sweep_process(spec, bench_run.RUN_DEADLINE_S)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            if result.get("errors"):
                print(f"{name} seed {seed}: {result['errors']}", file=sys.stderr)
                return 1
            key = reference_key(workload, seed)
            data["digests"][key] = {k: result["digests"][k] for k in gated_digest_keys(workload)}
            print(key, flush=True)
    data["digests"] = dict(sorted(data["digests"].items()))
    REFERENCE_PATH.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {REFERENCE_PATH.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
