"""One sweep of one workload, plus its set-up and its correctness gate.

Run as a script, it executes a single timed `run()` in a fresh process and
prints a JSON result as its last line, so each sweep's peak RSS is its own:

    python3 bench/sweep.py '<spec JSON>'

The spec names the workload, seed, input paths, output directory and whether
to trace; `bench/run.py` builds it.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import fake_endpoint  # noqa: E402
import tracing  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    Workload,
    build_backend,
    build_config,
    build_provider,
    expected_cells,
    import_package,
    scaled,
    sha256_json,
)

# Digests of the outputs each (workload, n_per_label, seed) must write, made
# by bench/reference.py. They let the gate catch a change that alters the
# outputs the same way on every sweep, which the identity check cannot.
REFERENCE_PATH = HERE / "reference_digests.json"


def prepare(workload: Workload, seed: int, directory: Path) -> dict:
    """Generate and write the corpus, plus the saved index and filled cache if needed.

    Returns the paths the sweeps read, and for a warm cache the digest of the
    fill run's cells, which every replay must reproduce.
    """
    from vulnprompt.corpus import dump_jsonl
    from vulnprompt.runner import build_index_from_corpus, run
    from vulnprompt.synthetic import make_synthetic_corpus
    from vulnprompt.vecindex import save_index

    directory.mkdir(parents=True, exist_ok=True)
    corpus = make_synthetic_corpus(seed=seed, n_per_label=workload.n_per_label)
    inputs = {"corpus_path": str(directory / "corpus.jsonl")}
    dump_jsonl(corpus, inputs["corpus_path"])
    if workload.persisted_index:
        inputs["index_path"] = str(directory / "index.jsonl")
        index = build_index_from_corpus(corpus, build_backend(), include_labels=True)
        save_index(index, inputs["index_path"])
    if workload.cache == "warm":
        inputs["cache_dir"] = str(directory / "cache")
        # The fill sees no permanent failures and no latency: every prompt
        # must land in the cache for replays to make zero provider calls.
        config = build_config(workload, seed, output_dir=directory / "fill", **inputs)
        endpoint = fake_endpoint.FakeChatEndpoint(latency_s=0.0, fail_per_mille=0)
        report = run(config, provider=build_provider(endpoint), embed_backend=build_backend())
        inputs["fill_cells_sha256"] = sha256_json([c.to_json_dict() for c in report.cells])
    return inputs


def gated_digest_keys(workload: Workload) -> tuple:
    """The digests that must repeat exactly for this workload.

    The cold workload's records are compared without their `cached` flag and
    its payload without `provider_calls`: when two test samples share a
    prompt and both are in flight at once, both miss the cache, so those two
    fields depend on thread timing.
    """
    if workload.cache == "empty":
        return ("records_sans_cached_sha256", "payload_sans_calls_sha256")
    return ("records_sha256", "payload_sha256")


def reference_key(workload: Workload, seed: int) -> str:
    return f"{workload.name}/n{workload.n_per_label}/seed{seed}"


def load_reference(workload: Workload, seed: int) -> dict | None:
    """The committed digests for this workload, size and seed, if any."""
    if not REFERENCE_PATH.is_file():
        return None
    data = json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))
    return data["digests"].get(reference_key(workload, seed))


def _without(data: dict, key: str) -> dict:
    return {k: v for k, v in data.items() if k != key}


def check_outputs(
    workload: Workload, corpus_path, output_dir, served=None, fill_cells_sha256=None, reference=None
) -> dict:
    """The per-sweep correctness gate, computed from the files a sweep wrote.

    Returns {"errors": [...], "digests": {...}, "records": n, "failed_records": n,
    "provider_calls": n}. The digests let the caller require byte-identical
    output across repeats of one workload and seed; `reference`, when given,
    holds the digests this workload and seed must produce.
    """
    from vulnprompt.corpus import ingest
    from vulnprompt.runner import RunReport, cells_from_records, load_records

    out = Path(output_dir)
    errors = []
    report = RunReport.from_json((out / "report.json").read_text(encoding="utf-8"))
    records_bytes = (out / "records.jsonl").read_bytes()
    records = load_records(out / "records.jsonl")
    corpus = ingest(corpus_path)

    if cells_from_records(records, corpus) != report.cells:
        errors.append("cells recomputed from records.jsonl differ from report.json")
    n_cells = expected_cells(workload)
    if len(report.cells) != n_cells:
        errors.append(f"report has {len(report.cells)} cells, expected {n_cells}")
    if len(records) != len(corpus.test) * n_cells:
        errors.append(
            f"{len(records)} records, expected {len(corpus.test)} test samples x {n_cells} cells"
        )
    failed = [r for r in records if r.error is not None]
    if workload.cache == "warm":
        if report.provider_calls != 0:
            errors.append(f"warm replay made {report.provider_calls} provider calls")
        cells_sha = sha256_json([c.to_json_dict() for c in report.cells])
        if cells_sha != fill_cells_sha256:
            errors.append("warm replay cells differ from the cache fill run's cells")
    if workload.cache == "empty":
        prompted = [r for r in records if r.prompt_hash is not None]
        for r in prompted:
            should_fail = fake_endpoint.always_fails(r.prompt_hash, workload.fail_per_mille)
            if should_fail != (r.error is not None):
                errors.append(f"record {r.test_id}/{r.strategy.value}/k={r.k}: error={r.error!r}")
                break
            if served is not None and not should_fail and r.raw_text != served.get(r.prompt_hash):
                errors.append(f"record {r.test_id}/{r.strategy.value}/k={r.k}: raw_text is not the served answer")
                break
        # Every provider call yields either a fresh answer or a failed record.
        fresh = sum(1 for r in prompted if r.cached is False)
        if report.provider_calls != fresh + len(failed):
            errors.append(
                f"provider_calls {report.provider_calls} != fresh answers {fresh} + failures {len(failed)}"
            )
    if workload.cache is None and report.provider_calls != 0:
        errors.append(f"retrieval-only run made {report.provider_calls} provider calls")

    payload = report.payload_dict()
    normalized_records = [_without(json.loads(line), "cached") for line in records_bytes.splitlines()]
    digests = {
        "records_sha256": hashlib.sha256(records_bytes).hexdigest(),
        "payload_sha256": sha256_json(payload),
        "records_sans_cached_sha256": sha256_json(normalized_records),
        "payload_sans_calls_sha256": sha256_json(_without(payload, "provider_calls")),
    }
    if reference is not None:
        for key in gated_digest_keys(workload):
            if digests[key] != reference[key]:
                errors.append(f"{key} differs from the committed reference ({REFERENCE_PATH.name})")
    return {
        "errors": errors,
        "records": len(records),
        "failed_records": len(failed),
        "provider_calls": report.provider_calls,
        "digests": digests,
    }


def run_sweep(
    workload: Workload, seed: int, inputs: dict, output_dir,
    cache_dir=None, trace=False, spans_path=None, reference=None,
) -> dict:
    """Time one run() call, then gate its outputs."""
    from vulnprompt import runner

    config = build_config(
        workload,
        seed,
        corpus_path=inputs["corpus_path"],
        output_dir=output_dir,
        cache_dir=cache_dir or inputs.get("cache_dir"),
        index_path=inputs.get("index_path"),
    )
    backend = build_backend()
    endpoint = provider = None
    if workload.uses_provider:
        endpoint = fake_endpoint.FakeChatEndpoint(workload.latency_s, workload.fail_per_mille)
        provider = build_provider(endpoint)
    tracer = uninstall = None
    if trace:
        tracer = tracing.Tracer()
        uninstall = tracing.install(tracer, runner, backend, provider, endpoint)
    try:
        start = time.perf_counter()
        runner.run(config, provider=provider, embed_backend=backend)
        sweep_s = time.perf_counter() - start
    finally:
        if uninstall is not None:
            uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = check_outputs(
        workload,
        inputs["corpus_path"],
        output_dir,
        served=endpoint.answers if endpoint is not None else None,
        fill_cells_sha256=inputs.get("fill_cells_sha256"),
        reference=reference,
    )
    result.update(sweep_s=sweep_s, peak_rss_mb=peak_rss_mb, traced=trace)
    if endpoint is not None:
        result["endpoint"] = endpoint.counters()
    if tracer is not None:
        summary = tracing.summarize(tracer, sweep_s)
        result["layers"] = tracing.layer_metrics(summary)
        result["wrap_calls"] = summary["calls"]
        result["wrap_total_s"] = summary["total_s"]
        result["wrap_self_s"] = summary["self_s"]
        missing = tracing.missing_wrap_points(summary["calls"], workload.name)
        if missing:
            result["errors"].append(f"traced wrap points recorded no spans: {', '.join(missing)}")
        if endpoint is not None and result["endpoint"]["attempts"] != summary["calls"]["llmclient.http_post"]:
            result["errors"].append("endpoint attempt count differs from traced http_attempts")
        if spans_path:
            tracing.write_spans(tracer, spans_path)
    return result


def main(argv) -> int:
    spec = json.loads(argv[1])
    import_package()
    workload = scaled(WORKLOADS[spec["workload"]], spec.get("n_per_label"))
    try:
        result = run_sweep(
            workload,
            spec["seed"],
            spec["inputs"],
            spec["output_dir"],
            cache_dir=spec.get("cache_dir"),
            trace=spec["trace"],
            spans_path=spec.get("spans_path"),
            reference=spec.get("reference"),
        )
    except Exception as exc:  # reported to the orchestrator, which fails the run
        traceback.print_exc()
        result = {"errors": [f"sweep raised {type(exc).__name__}: {exc}"]}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
