"""Span tracing around the calls `vulnprompt.runner` makes into each layer.

Nothing in the package is edited. `install` replaces, for one process, the
module attributes `runner` calls by name (`runner.top_k`, `runner.render`,
...), the cache class `runner` instantiates, and the `embed`, `generate` and
`post` methods of the backend, provider and session objects handed to
`run()`. Each replacement records a span (name, start, end, thread, parent)
on a per-thread stack and bumps counters at the same boundary. Spans stay in
memory; `write_spans` writes them out once the sweep has ended.
"""

from __future__ import annotations

import json
import threading
import time
from collections import Counter, defaultdict

ALL = ("sweep_cold_remote", "sweep_warm_replay", "retrieval_scale")
PROMPTED = ("sweep_cold_remote", "sweep_warm_replay")
COLD = ("sweep_cold_remote",)

# Wrap point (layer.function) -> the workloads that must record at least one span there.
# A wrap point with zero spans on such a workload fails the traced run, so a
# renamed import in runner cannot silently report a layer as 0 s.
WRAP_POINTS = {
    "corpus.ingest": ALL,
    "embedding.embed": ALL,
    "vecindex.build": ("sweep_cold_remote", "retrieval_scale"),
    "vecindex.load_index": ("sweep_warm_replay",),
    "vecindex.top_k": ALL,
    "prompting.select_random": PROMPTED,
    "prompting.shots_from_neighbors": PROMPTED,
    "prompting.render": PROMPTED,
    "llmclient.complete": PROMPTED,
    "llmclient.cache_get": PROMPTED,
    "llmclient.cache_put": COLD,
    "llmclient.generate": COLD,
    "llmclient.http_post": COLD,
    "labeling.parse_labels": PROMPTED,
    "labeling.retrieval_label": ALL,
    "metrics.report": ALL,
    "fileio.atomic_write_text": ALL,
}

# runner attribute -> wrap point.
RUNNER_ATTRS = {
    "ingest": "corpus.ingest",
    "build": "vecindex.build",
    "load_index": "vecindex.load_index",
    "top_k": "vecindex.top_k",
    "select_random": "prompting.select_random",
    "shots_from_neighbors": "prompting.shots_from_neighbors",
    "render": "prompting.render",
    "complete": "llmclient.complete",
    "parse_labels": "labeling.parse_labels",
    "retrieval_label": "labeling.retrieval_label",
    "metrics_report": "metrics.report",
    "atomic_write_text": "fileio.atomic_write_text",
}

COLD_W, WARM_W, SCALE_W = ALL
_COLD_PROVIDER = [("sweep_s", COLD_W), ("failed_frac", COLD_W), ("provider_calls", COLD_W)]
# Per-layer metric -> (unit, better, [(end-to-end metric, workload), ...] it should move).
LAYER_METRICS = {
    "corpus.ingest_s": ("s", "lower", [("sweep_s", SCALE_W)]),
    "embedding.embed_calls": ("count", "lower", [("sweep_s", SCALE_W)]),
    "embedding.embed_s": ("s", "lower", [("sweep_s", SCALE_W)]),
    "vecindex.build_s": ("s", "lower", [("sweep_s", SCALE_W)]),
    "vecindex.top_k_calls": ("count", "lower", [("sweep_s", SCALE_W), ("sweep_s", WARM_W)]),
    "vecindex.top_k_s": ("s", "lower", [("sweep_s", SCALE_W), ("sweep_s", WARM_W)]),
    "vecindex.load_index_s": ("s", "lower", [("sweep_s", WARM_W)]),
    "prompting.select_s": ("s", "lower", [("sweep_s", WARM_W)]),
    "prompting.render_calls": ("count", "lower", [("sweep_s", WARM_W)]),
    "prompting.render_s": ("s", "lower", [("sweep_s", WARM_W)]),
    "prompting.prompt_bytes": ("B", "lower", [("sweep_s", WARM_W)]),
    "llmclient.complete_calls": ("count", "lower", [("sweep_s", COLD_W), ("sweep_s", WARM_W)]),
    "llmclient.complete_s": ("s", "lower", [("sweep_s", COLD_W), ("sweep_s", WARM_W)]),
    "llmclient.cache_hits": ("count", "higher", [("sweep_s", WARM_W), ("provider_calls", COLD_W)]),
    "llmclient.cache_misses": ("count", "lower", [("sweep_s", WARM_W), ("provider_calls", COLD_W)]),
    "llmclient.cache_hit_ratio": ("ratio", "higher", [("sweep_s", WARM_W), ("provider_calls", COLD_W)]),
    "llmclient.cache_get_s": ("s", "lower", [("sweep_s", WARM_W), ("provider_calls", COLD_W)]),
    "llmclient.cache_puts": ("count", "lower", [("sweep_s", COLD_W)]),
    "llmclient.cache_put_s": ("s", "lower", [("sweep_s", COLD_W)]),
    "llmclient.generate_calls": ("count", "lower", _COLD_PROVIDER),
    "llmclient.generate_s": ("s", "lower", _COLD_PROVIDER),
    "llmclient.http_attempts": ("count", "lower", _COLD_PROVIDER),
    "llmclient.http_retries": ("count", "lower", _COLD_PROVIDER),
    "llmclient.generate_failed": ("count", "lower", _COLD_PROVIDER),
    "llmclient.attempt_yield": ("ratio", "higher", _COLD_PROVIDER),
    "labeling.parse_calls": ("count", "lower", [("sweep_s", WARM_W)]),
    "labeling.parse_s": ("s", "lower", [("sweep_s", WARM_W)]),
    "labeling.empty_parse": ("count", "lower", [("sweep_s", WARM_W)]),
    "labeling.unknown_mentions": ("count", "lower", [("sweep_s", WARM_W)]),
    "labeling.retrieval_label_calls": ("count", "lower", [("sweep_s", SCALE_W), ("sweep_s", WARM_W)]),
    "labeling.retrieval_label_s": ("s", "lower", [("sweep_s", SCALE_W), ("sweep_s", WARM_W)]),
    "metrics.report_calls": ("count", "lower", [("sweep_s", w) for w in ALL]),
    "metrics.report_s": ("s", "lower", [("sweep_s", w) for w in ALL]),
    "fileio.write_s": ("s", "lower", [("sweep_s", WARM_W), ("sweep_s", SCALE_W)]),
    "fileio.bytes_written": ("B", "lower", [("sweep_s", WARM_W), ("sweep_s", SCALE_W)]),
    "runner.self_s": ("s", "lower", [("sweep_s", WARM_W), ("sweep_s", COLD_W)]),
    "runner.overlap": ("ratio", "higher", [("sweep_s", COLD_W)]),
    "trace.overhead_frac": ("ratio", "lower", []),
}


class Span:
    __slots__ = ("name", "start", "end", "thread", "parent")

    def __init__(self, name: str, thread: int, parent) -> None:
        self.name = name
        self.thread = thread
        self.parent = parent
        self.start = 0.0
        self.end = 0.0


class Tracer:
    """Collects spans and counters from any number of threads."""

    def __init__(self) -> None:
        self.spans: list = []
        self.counters: Counter = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()

    def count(self, key: str, n: int = 1) -> None:
        with self._lock:
            self.counters[key] += n

    def wrap(self, name: str, fn, observe=None):
        """Return fn wrapped in a span; observe(args, result, raised) runs after it."""
        local = self._local
        spans = self.spans

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span = Span(name, threading.get_ident(), stack[-1] if stack else None)
            stack.append(span)
            result = None
            raised = True
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                span.end = time.perf_counter()
                stack.pop()
                spans.append(span)
                if observe is not None:
                    observe(args, result, raised)

        return traced


def install(tracer: Tracer, runner, backend, provider=None, endpoint=None):
    """Wrap every layer boundary of one sweep; returns a function that undoes it."""
    undo = []

    def patch(owner, attr: str, name: str, observe=None) -> None:
        original = getattr(owner, attr)
        undo.append((owner, attr, original))
        setattr(owner, attr, tracer.wrap(name, original, observe))

    def count_prompt_bytes(args, result, raised):
        if not raised:
            tracer.count("prompt_bytes", len(result.encode("utf-8")))

    def count_parse_outcome(args, result, raised):
        if not raised:
            tracer.count("empty_parse", int(result.empty_parse))
            tracer.count("unknown_mentions", len(result.unknown_mentions))

    def count_bytes_written(args, result, raised):
        if not raised:
            tracer.count("bytes_written", len(args[1].encode("utf-8")))

    def count_cache_lookup(args, result, raised):
        if not raised:
            tracer.count("cache_hits" if result is not None else "cache_misses")

    def count_generate_failure(args, result, raised):
        if raised:
            tracer.count("generate_failed")

    observers = {
        "prompting.render": count_prompt_bytes,
        "labeling.parse_labels": count_parse_outcome,
        "fileio.atomic_write_text": count_bytes_written,
    }
    for attr, name in RUNNER_ATTRS.items():
        patch(runner, attr, name, observers.get(name))
    patch(backend, "embed", "embedding.embed")

    cache_cls = runner.ResponseCache

    def traced_cache(*args, **kwargs):
        cache = cache_cls(*args, **kwargs)
        cache.get = tracer.wrap("llmclient.cache_get", cache.get, count_cache_lookup)
        cache.put = tracer.wrap("llmclient.cache_put", cache.put)
        return cache

    undo.append((runner, "ResponseCache", cache_cls))
    runner.ResponseCache = traced_cache
    if provider is not None:
        patch(provider, "generate", "llmclient.generate", count_generate_failure)
    if endpoint is not None:
        patch(endpoint, "post", "llmclient.http_post")

    def uninstall() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall


def _union_length(intervals) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def summarize(tracer: Tracer, wall_s: float) -> dict:
    """Per-wrap-point calls, inclusive and self seconds, plus runner coverage."""
    calls: Counter = Counter()
    total: defaultdict = defaultdict(float)
    child_time: dict = defaultdict(float)
    top = []
    for span in tracer.spans:
        duration = span.end - span.start
        calls[span.name] += 1
        total[span.name] += duration
        if span.parent is None:
            top.append((span.start, span.end))
        else:
            child_time[id(span.parent)] += duration
    self_s: defaultdict = defaultdict(float)
    for span in tracer.spans:
        self_s[span.name] += span.end - span.start - child_time.get(id(span), 0.0)
    busy = sum(end - start for start, end in top)
    return {
        "calls": {name: calls[name] for name in WRAP_POINTS},
        "total_s": {name: total[name] for name in WRAP_POINTS},
        "self_s": {name: self_s[name] for name in WRAP_POINTS},
        "counters": dict(tracer.counters),
        "wall_s": wall_s,
        "covered_s": _union_length(top),
        "busy_s": busy,
    }


def layer_metrics(summary: dict) -> dict:
    """Map one sweep's span summary onto the named per-layer metrics.

    Ratios whose base is zero on a workload (no cache lookups, no attempts)
    are reported as None.
    """
    calls, total, counters = summary["calls"], summary["total_s"], summary["counters"]
    hits = counters.get("cache_hits", 0)
    misses = counters.get("cache_misses", 0)
    generates = calls["llmclient.generate"]
    failed = counters.get("generate_failed", 0)
    attempts = calls["llmclient.http_post"]
    wall = summary["wall_s"]
    return {
        "corpus.ingest_s": total["corpus.ingest"],
        "embedding.embed_calls": calls["embedding.embed"],
        "embedding.embed_s": total["embedding.embed"],
        "vecindex.build_s": total["vecindex.build"],
        "vecindex.top_k_calls": calls["vecindex.top_k"],
        "vecindex.top_k_s": total["vecindex.top_k"],
        "vecindex.load_index_s": total["vecindex.load_index"],
        "prompting.select_s": total["prompting.select_random"]
        + total["prompting.shots_from_neighbors"],
        "prompting.render_calls": calls["prompting.render"],
        "prompting.render_s": total["prompting.render"],
        "prompting.prompt_bytes": counters.get("prompt_bytes", 0),
        "llmclient.complete_calls": calls["llmclient.complete"],
        "llmclient.complete_s": total["llmclient.complete"],
        "llmclient.cache_hits": hits,
        "llmclient.cache_misses": misses,
        "llmclient.cache_hit_ratio": hits / (hits + misses) if hits + misses else None,
        "llmclient.cache_get_s": total["llmclient.cache_get"],
        "llmclient.cache_puts": calls["llmclient.cache_put"],
        "llmclient.cache_put_s": total["llmclient.cache_put"],
        "llmclient.generate_calls": generates,
        "llmclient.generate_s": total["llmclient.generate"],
        "llmclient.http_attempts": attempts,
        "llmclient.http_retries": attempts - generates,
        "llmclient.generate_failed": failed,
        "llmclient.attempt_yield": (generates - failed) / attempts if attempts else None,
        "labeling.parse_calls": calls["labeling.parse_labels"],
        "labeling.parse_s": total["labeling.parse_labels"],
        "labeling.empty_parse": counters.get("empty_parse", 0),
        "labeling.unknown_mentions": counters.get("unknown_mentions", 0),
        "labeling.retrieval_label_calls": calls["labeling.retrieval_label"],
        "labeling.retrieval_label_s": total["labeling.retrieval_label"],
        "metrics.report_calls": calls["metrics.report"],
        "metrics.report_s": total["metrics.report"],
        "fileio.write_s": total["fileio.atomic_write_text"],
        "fileio.bytes_written": counters.get("bytes_written", 0),
        "runner.self_s": wall - summary["covered_s"],
        "runner.overlap": summary["busy_s"] / wall,
    }


def missing_wrap_points(calls: dict, workload: str) -> list:
    """Wrap points that recorded no span on a workload that must hit them."""
    return [
        name
        for name, required in WRAP_POINTS.items()
        if workload in required and not calls.get(name)
    ]


def write_spans(tracer: Tracer, path) -> None:
    """Write spans as JSONL with parent indices, start times relative to the first span."""
    spans = sorted(tracer.spans, key=lambda s: s.start)
    index = {id(span): i for i, span in enumerate(spans)}
    origin = spans[0].start if spans else 0.0
    with open(path, "w", encoding="utf-8") as handle:
        for span in spans:
            parent = index[id(span.parent)] if span.parent is not None else None
            record = {
                "name": span.name,
                "start": span.start - origin,
                "end": span.end - origin,
                "thread": span.thread,
                "parent": parent,
            }
            handle.write(json.dumps(record) + "\n")
