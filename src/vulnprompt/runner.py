"""Experiment orchestration: strategy and shot-count sweeps over a test split.

A run evaluates each configured strategy at each shot count against every
test sample, records one PredictionRecord per evaluation, aggregates metrics
per (strategy, k) cell, and writes three artifacts atomically: a JSONL
prediction log, a JSON report, and a CSV table. Each cell is planned,
resolved, scored and written before the next starts: its records are appended
to a hidden temp file in the output directory and then dropped, and the file
is renamed to records.jsonl when the run ends, so a run never holds more than
one cell's records.

A prompted cell selects shots and renders one CompletionRequest per test
sample on the calling thread, resolves them all with one llmclient.complete
call, then parses the replies into records in test-split order. The provider
decides how its cache misses run: the in-process mocks answer inline, and the
remote provider keeps at most its max_in_flight requests outstanding.

Given a mock provider, a fixed seed, and a warm cache, reruns are
byte-identical; timestamps live in a separate metadata block so they never
perturb the payload.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from .config import ExperimentConfig
from .corpus import Corpus, ingest
from .embedding import EmbeddingInput, HashedBagOfTokensBackend, RemoteEmbeddingBackend
from .fileio import atomic_write_text
from .labeling import ParseOutcome, parse_labels, retrieval_label
from .labels import label_codes, label_set
from .llmclient import (
    CompletionRequest,
    FixedProvider,
    ParrotProvider,
    ProviderError,
    RemoteChatProvider,
    ResponseCache,
    complete,
    oracle_for_corpus,
)
from .metrics import LabeledPair, MetricsReport
from .metrics import report as metrics_report
from .prompting import (
    PROMPT_STRATEGIES,
    PromptSpec,
    ShotOrder,
    Strategy,
    prompt_hash,
    render,
    select_random,
    shots_from_neighbors,
)
from .vecindex import IndexEntry, VectorIndex, build, load_index, top_k

TABLE_COLUMNS = (
    "strategy",
    "k",
    "subset_accuracy",
    "hamming_accuracy",
    "partial_match",
    "precision",
    "recall",
    "f1",
    "partial_match_vs_truth",
    "failures",
)

CURVE_METRICS = (
    "subset_accuracy",
    "hamming_accuracy",
    "partial_match_accuracy",
    "micro_precision",
    "micro_recall",
    "micro_f1",
)


class RunnerError(Exception):
    """Raised for unusable run inputs: empty splits, bad index, bad config."""


class StrictRunError(RunnerError):
    """A provider failure aborted a strict run; a checkpoint file was written."""

    def __init__(self, message: str, partial_records_path: str | None = None) -> None:
        super().__init__(message)
        self.partial_records_path = partial_records_path


@dataclass(frozen=True)
class PredictionRecord:
    """One evaluated test sample under one (strategy, k) cell."""

    test_id: str
    strategy: Strategy
    k: int
    pred: frozenset
    neighbor_ids: tuple | None = None
    similarities: tuple | None = None
    prompt_hash: str | None = None
    raw_text: str | None = None
    parsed: ParseOutcome | None = None
    cached: bool | None = None
    error: str | None = None

    def to_json_dict(self) -> dict:
        parsed = None
        if self.parsed is not None:
            parsed = {
                "labels": label_codes(self.parsed.labels),
                "unknown_mentions": list(self.parsed.unknown_mentions),
                "empty_parse": self.parsed.empty_parse,
            }
        return {
            "test_id": self.test_id,
            "strategy": self.strategy.value,
            "k": self.k,
            "pred": label_codes(self.pred),
            "neighbor_ids": list(self.neighbor_ids) if self.neighbor_ids is not None else None,
            "similarities": list(self.similarities) if self.similarities is not None else None,
            "prompt_hash": self.prompt_hash,
            "raw_text": self.raw_text,
            "parsed": parsed,
            "cached": self.cached,
            "error": self.error,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "PredictionRecord":
        parsed = None
        if data.get("parsed") is not None:
            raw = data["parsed"]
            parsed = ParseOutcome(
                labels=label_set(raw["labels"]),
                unknown_mentions=tuple(raw["unknown_mentions"]),
                empty_parse=raw["empty_parse"],
            )
        return cls(
            test_id=data["test_id"],
            strategy=Strategy(data["strategy"]),
            k=data["k"],
            pred=label_set(data["pred"]),
            neighbor_ids=tuple(data["neighbor_ids"]) if data.get("neighbor_ids") is not None else None,
            similarities=tuple(data["similarities"]) if data.get("similarities") is not None else None,
            prompt_hash=data.get("prompt_hash"),
            raw_text=data.get("raw_text"),
            parsed=parsed,
            cached=data.get("cached"),
            error=data.get("error"),
        )


@dataclass(frozen=True)
class CellReport:
    """Aggregated metrics for one (strategy, k) cell."""

    strategy: Strategy
    k: int
    metrics: MetricsReport
    failures: int

    def to_json_dict(self) -> dict:
        return {
            "strategy": self.strategy.value,
            "k": self.k,
            "metrics": self.metrics.to_json_dict(),
            "failures": self.failures,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "CellReport":
        return cls(
            strategy=Strategy(data["strategy"]),
            k=data["k"],
            metrics=MetricsReport.from_json_dict(data["metrics"]),
            failures=data["failures"],
        )


@dataclass(frozen=True)
class RunReport:
    """Everything one run produced, minus the raw records.

    payload_dict() is the deterministic portion; the metadata block holds
    timestamps and wall-clock and is excluded from replay comparisons.
    """

    template_id: str
    shot_order: ShotOrder
    config: dict
    cells: tuple
    provider_calls: int
    metadata: dict

    def payload_dict(self) -> dict:
        return {
            "template_id": self.template_id,
            "shot_order": self.shot_order.value,
            "config": self.config,
            "cells": [cell.to_json_dict() for cell in self.cells],
            "provider_calls": self.provider_calls,
        }

    def to_json(self) -> str:
        data = self.payload_dict()
        data["metadata"] = self.metadata
        return json.dumps(data, sort_keys=True, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "RunReport":
        data = json.loads(text)
        return cls(
            template_id=data["template_id"],
            shot_order=ShotOrder(data["shot_order"]),
            config=data["config"],
            cells=tuple(CellReport.from_json_dict(c) for c in data["cells"]),
            provider_calls=data["provider_calls"],
            metadata=data.get("metadata", {}),
        )


def build_index_from_corpus(
    corpus: Corpus, backend, include_labels: bool = True
) -> VectorIndex:
    """Embed every train sample and assemble the retrieval index.

    With include_labels on, each sample's labels are appended to the text
    before embedding, so samples sharing a label sit closer together.
    """
    if not corpus.train:
        raise RunnerError("cannot build an index from an empty train split")
    entries = (
        IndexEntry(
            sample_id=sample.id,
            vector=backend.embed(
                EmbeddingInput(
                    code=sample.code, labels=sample.truth if include_labels else None
                )
            ),
            truth=sample.truth,
        )
        for sample in corpus.train
    )
    return build(entries, count=len(corpus.train))


def _build_backend(config: ExperimentConfig):
    settings = config.embedding
    if settings.backend == "hashed":
        return HashedBagOfTokensBackend(dimension=settings.dimension)
    return RemoteEmbeddingBackend(
        endpoint=settings.endpoint,
        model=settings.model,
        dimension=settings.dimension,
        api_key_env=settings.api_key_env,
        max_input_chars=settings.max_input_chars,
    )


def _build_provider(config: ExperimentConfig, corpus: Corpus):
    settings = config.provider
    if settings.type == "remote":
        if not settings.endpoint:
            raise RunnerError("remote provider requires an endpoint")
        return RemoteChatProvider(
            endpoint=settings.endpoint,
            api_key_env=settings.api_key_env,
            timeout_s=settings.timeout_s,
            retries=settings.retries,
            max_in_flight=settings.max_in_flight,
        )
    if settings.type == "oracle":
        return oracle_for_corpus(corpus)
    if settings.type == "parrot":
        return ParrotProvider()
    if not settings.fixed_text:
        raise RunnerError("fixed provider requires fixed_text")
    return FixedProvider(settings.fixed_text)


def run(config: ExperimentConfig, *, provider=None, embed_backend=None) -> RunReport:
    """Execute the full sweep and write records.jsonl, report.json, report.csv.

    A provider or embedding backend passed directly overrides the config,
    which is how tests and offline scripts inject mocks.
    """
    started_at = time.time()
    corpus = ingest(config.corpus_path)
    if not corpus.test:
        raise RunnerError("corpus has no test samples")

    # Random selection cannot draw more shots than the pool holds; retrieval
    # strategies clamp to the index size instead.
    max_k = max(config.shot_counts)
    if Strategy.RANDOM_FEW_SHOT in config.strategies and max_k > len(corpus.train):
        raise RunnerError(
            f"largest shot count {max_k} exceeds train split size {len(corpus.train)}"
        )

    samples_by_id = corpus.by_id()
    needs_retrieval = (
        Strategy.RETRIEVAL_FEW_SHOT in config.strategies
        or Strategy.RETRIEVAL_LABELING in config.strategies
    )
    backend = embed_backend if embed_backend is not None else _build_backend(config)

    # Each test query is ranked once, at the largest shot count; every
    # retrieval cell takes a prefix of that ranking, which top_k guarantees
    # equals a direct top_k call at the smaller k.
    rankings: dict = {}
    if needs_retrieval:
        if config.index_path:
            index = load_index(config.index_path)
            if index.dimension != backend.dimension:
                raise RunnerError(
                    f"index dim {index.dimension} does not match embedding dim "
                    f"{backend.dimension}"
                )
            ids = index.ids.tolist()
            missing = [i for i in ids if i not in samples_by_id]
            if missing:
                raise RunnerError(
                    f"index contains ids not in the corpus: {missing[:5]}"
                )
            relabelled = [
                i for i, truth in zip(ids, index.truths) if truth != samples_by_id[i].truth
            ]
            if relabelled:
                raise RunnerError(
                    f"index labels differ from the corpus truth for ids: {relabelled[:5]}"
                )
        else:
            index = build_index_from_corpus(
                corpus, backend, include_labels=config.include_labels_in_index
            )
        for sample in corpus.test:
            query = backend.embed(EmbeddingInput(code=sample.code))
            rankings[sample.id] = top_k(index, query, max_k)

    if provider is None and any(s in PROMPT_STRATEGIES for s in config.strategies):
        provider = _build_provider(config, corpus)
    calls_before = provider.call_count if provider is not None else 0
    output_dir = Path(config.output_dir)
    partial_path = output_dir / "records.partial.jsonl"

    def prompt_for(sample, strategy: Strategy, k: int) -> tuple:
        neighbor_ids = None
        similarities = None
        if strategy is Strategy.ZERO_SHOT:
            shots = ()
        elif strategy is Strategy.RANDOM_FEW_SHOT:
            shots = select_random(corpus.train, k, config.seed, sample.id)
        else:
            neighbors = rankings[sample.id][:k]
            neighbor_ids = tuple(n.sample_id for n in neighbors)
            similarities = tuple(n.similarity for n in neighbors)
            shots = shots_from_neighbors(neighbors, samples_by_id, config.shot_order)
        spec = PromptSpec(
            strategy=strategy, k=len(shots), shots=shots, test_code=sample.code
        )
        return neighbor_ids, similarities, render(spec)

    def evaluate_prompted_cell(strategy: Strategy, k: int) -> list:
        prompts = [prompt_for(sample, strategy, k) for sample in corpus.test]
        requests = [
            CompletionRequest(
                model_id=config.provider.model_id,
                prompt=prompt,
                temperature=config.provider.temperature,
                max_output_tokens=config.provider.max_output_tokens,
            )
            for _, _, prompt in prompts
        ]
        results = complete(requests, provider, cache)
        if config.strict:
            for result in results:
                if isinstance(result, ProviderError):
                    raise StrictRunError(
                        f"provider failure under strict mode: {result}", str(partial_path)
                    ) from result
        return [
            prompted_record(sample, strategy, k, *prompted, result)
            for sample, prompted, result in zip(corpus.test, prompts, results)
        ]

    def prompted_record(
        sample, strategy, k, neighbor_ids, similarities, prompt, result
    ) -> PredictionRecord:
        common = dict(
            test_id=sample.id,
            strategy=strategy,
            k=k,
            neighbor_ids=neighbor_ids,
            similarities=similarities,
            prompt_hash=prompt_hash(prompt),
        )
        if isinstance(result, ProviderError):
            return PredictionRecord(pred=frozenset(), error=str(result), **common)
        outcome = parse_labels(result.text)
        return PredictionRecord(
            pred=outcome.labels,
            raw_text=result.text,
            parsed=outcome,
            cached=result.cached,
            **common,
        )

    def evaluate_retrieval_labeling(sample, k: int) -> PredictionRecord:
        neighbors = rankings[sample.id][:k]
        pred = retrieval_label(neighbors, samples_by_id)
        return PredictionRecord(
            test_id=sample.id,
            strategy=Strategy.RETRIEVAL_LABELING,
            k=k,
            pred=pred,
            neighbor_ids=tuple(n.sample_id for n in neighbors),
            similarities=tuple(n.similarity for n in neighbors),
        )

    # The temp file holds exactly the finished cells: renamed to records.jsonl
    # on success or to records.partial.jsonl on a strict abort, and removed on
    # any other exception.
    cells: list[CellReport] = []
    output_dir.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=output_dir, prefix=".records.jsonl.", suffix=".tmp"
    )
    sink = os.fdopen(fd, "w", encoding="utf-8")
    cache = None
    try:
        with sink:
            cache = ResponseCache(config.cache_dir) if config.cache_dir else None
            for strategy in config.strategies:
                ks = (0,) if strategy is Strategy.ZERO_SHOT else config.shot_counts
                for k in ks:
                    if strategy is Strategy.RETRIEVAL_LABELING:
                        cell_records = [
                            evaluate_retrieval_labeling(sample, k)
                            for sample in corpus.test
                        ]
                    else:
                        cell_records = evaluate_prompted_cell(strategy, k)
                    sink.writelines(
                        json.dumps(r.to_json_dict(), sort_keys=True) + "\n"
                        for r in cell_records
                    )
                    sink.flush()
                    cells.append(_score_cell(strategy, k, cell_records, samples_by_id))
        os.replace(tmp_name, output_dir / "records.jsonl")
    except StrictRunError:
        os.replace(tmp_name, partial_path)
        raise
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    finally:
        if cache is not None:
            cache.close()

    provider_calls = (
        provider.call_count - calls_before if provider is not None else 0
    )
    finished_at = time.time()
    report = RunReport(
        template_id=config.template_id,
        shot_order=config.shot_order,
        config=config.to_json_dict(),
        cells=tuple(cells),
        provider_calls=provider_calls,
        metadata={
            "started_at": started_at,
            "finished_at": finished_at,
            "wall_clock_s": finished_at - started_at,
        },
    )

    atomic_write_text(output_dir / "report.json", report.to_json() + "\n")
    atomic_write_text(output_dir / "report.csv", emit_table(report))
    return report


def load_records(path: str | Path) -> list:
    """Read a records.jsonl file back into PredictionRecords."""
    records = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if line.strip():
                records.append(PredictionRecord.from_json_dict(json.loads(line)))
    return records


def cells_from_records(records, corpus: Corpus) -> tuple:
    """Compute per-cell metrics from a prediction log.

    run() scores each cell with _score_cell, as this function does, so
    recomputing from a saved records.jsonl must reproduce the report's cells;
    this is the audit path for checking that reports and records agree.
    """
    samples_by_id = corpus.by_id()
    grouped: dict = {}
    for record in records:
        grouped.setdefault((record.strategy, record.k), []).append(record)
    return tuple(
        _score_cell(strategy, k, cell_records, samples_by_id)
        for (strategy, k), cell_records in grouped.items()
    )


def _score_cell(strategy: Strategy, k: int, cell_records, samples_by_id) -> CellReport:
    """Aggregate one (strategy, k) cell's records into its metrics."""
    pairs = [
        LabeledPair(truth=samples_by_id[r.test_id].truth, pred=r.pred)
        for r in cell_records
    ]
    failures = sum(1 for r in cell_records if r.error is not None)
    return CellReport(
        strategy=strategy, k=k, metrics=metrics_report(pairs), failures=failures
    )


def _pct(value: float) -> str:
    return f"{100 * value:.2f}"


def emit_table(report: RunReport) -> str:
    """Render the report as CSV, one row per (strategy, k) cell.

    Metric columns appear in the standard comparison order (subset accuracy,
    Hamming accuracy, partial match, precision, recall, F1) as percentages
    with two decimals.
    """
    lines = [",".join(TABLE_COLUMNS)]
    for cell in report.cells:
        m = cell.metrics
        lines.append(
            ",".join(
                (
                    cell.strategy.value,
                    str(cell.k),
                    _pct(m.subset_accuracy),
                    _pct(m.hamming_accuracy),
                    _pct(m.partial_match_accuracy),
                    _pct(m.micro_precision),
                    _pct(m.micro_recall),
                    _pct(m.micro_f1),
                    _pct(m.partial_match_vs_truth),
                    str(cell.failures),
                )
            )
        )
    return "\n".join(lines) + "\n"


def emit_curves(report: RunReport) -> dict:
    """Shape the report as per-metric series for external plotting.

    Returns {metric: {strategy: [[k, value], ...]}}. Requires at least one
    strategy with two or more shot counts, otherwise there is no curve.
    """
    per_strategy: dict = {}
    for cell in report.cells:
        per_strategy.setdefault(cell.strategy.value, []).append(cell)
    if all(len(cells) < 2 for cells in per_strategy.values()):
        raise RunnerError("curves need at least one strategy with two shot counts")
    curves: dict = {}
    for metric in CURVE_METRICS:
        curves[metric] = {
            strategy: [[cell.k, getattr(cell.metrics, metric)] for cell in cells]
            for strategy, cells in per_strategy.items()
        }
    return curves
