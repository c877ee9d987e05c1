"""Experiment orchestration: strategy and shot-count sweeps over a test split.

A run evaluates each configured strategy at each shot count against every
test sample, records one PredictionRecord per evaluation, aggregates metrics
per (strategy, k) cell, and writes three artifacts atomically: a JSONL
prediction log, a JSON report, and a CSV table.

A run first sets up what its strategies use: the provider and the response
cache only when a prompt strategy runs, and before any index read or embed
call, so a bad setting for either fails before that work. Under a retrieval
strategy it ranks every test query once, at the largest shot count, and
keeps per query what its records need: the neighbours, their id and
similarity tuples, and the JSON text of both lists with the end of each
prefix. It then walks one flat list of (strategy, k) cells, zero_shot being
the single k=0 cell.

Every cell, whatever its strategy, takes one path. Plan: each test sample
gets its ranking's first k neighbours (retrieval strategies) and its shots,
and a completion request unless the cell labels by retrieval. A few-shot
request carries only its prompt's digest, from the sample's
prompting.PromptHasher; the prompt is rendered only if the cache misses it.
Resolve: the requests go to one llmclient.complete call, which reads the
cell's cache rows in one query per chunk of keys, or retrieval labeling
unions the neighbours' labels. Score and write: one constructor turns each
sample's plan and result into a record, in test-split order; each record is
streamed through fileio.atomic_open towards records.partial.jsonl, its two
neighbour lists written as prefixes of its query's text, and the cell is
scored by metrics.from_table from a count of its (truth, pred) label-set
pairs. No record outlives its cell.

That file lands whole when the loop ends, holding exactly the finished cells.
On success it is renamed to records.jsonl. Under strict mode the first cell
with a provider failure ends the loop unwritten, and the landed file is the
checkpoint. Any other exception lands nothing and changes no earlier file.

The provider decides how its cache misses run: the in-process mocks answer
inline, and the remote provider keeps at most its max_in_flight requests
outstanding.

Given a mock provider, a fixed seed, and a warm cache, reruns are
byte-identical; timestamps live in a separate metadata block so they never
perturb the payload.

The annotations of PredictionRecord, CellReport and RunReport are the
artifacts' format. run() writes each line of records.jsonl through
config.json_writer, one template filled per record (a retrieval record's two
neighbour lists given as ready-made text, prefixes of its query's lists from
config.json_list_prefixes, and a parse outcome's text written once per
outcome), and report.json through config.to_plain; both give the text of
json.dumps with sorted keys.
RunReport.from_json and load_records read them back through config.from_plain.
A value of the wrong type, one that a __post_init__ check refuses, or a cell
rate that its counts contradict raises RunnerError naming it.
"""

from __future__ import annotations

import functools
import io
import json
import os
import time
from collections import Counter
from contextlib import closing, nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from .config import (
    ConfigError,
    ExperimentConfig,
    from_plain,
    json_list_prefixes,
    json_writer,
    to_plain,
)
from .corpus import Corpus, ingest
from .embedding import EmbeddingInput, HashedBagOfTokensBackend, RemoteEmbeddingBackend
from .fileio import atomic_open, atomic_write_text
from .labeling import ParseOutcome, parse_labels, retrieval_label
from .labels import CweLabel
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
# Cells are scored under this name: bench/tracing.py times the metrics layer
# by wrapping runner.metrics_report.
from .metrics import MetricsError, MetricsReport, rates_from_counts
from .metrics import from_table as metrics_report
from .prompting import (
    PROMPT_STRATEGIES,
    PromptHasher,
    ShotOrder,
    Strategy,
    render,
    select_random,
    shots_from_neighbors,
)
from .vecindex import IndexEntry, VectorIndex, build, load_index, top_k

RETRIEVAL_STRATEGIES = frozenset({Strategy.RETRIEVAL_FEW_SHOT, Strategy.RETRIEVAL_LABELING})

# (CSV column, MetricsReport field) in the standard comparison order; the
# first six are the metrics that emit_curves plots.
METRIC_COLUMNS = (
    ("subset_accuracy", "subset_accuracy"),
    ("hamming_accuracy", "hamming_accuracy"),
    ("partial_match", "partial_match_accuracy"),
    ("precision", "micro_precision"),
    ("recall", "micro_recall"),
    ("f1", "micro_f1"),
    ("partial_match_vs_truth", "partial_match_vs_truth"),
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
    pred: frozenset[CweLabel]
    neighbor_ids: tuple[str, ...] | None = None
    similarities: tuple[float, ...] | None = None
    prompt_hash: str | None = None
    raw_text: str | None = None
    parsed: ParseOutcome | None = None
    cached: bool | None = None
    error: str | None = None

    def __post_init__(self) -> None:
        if self.k < 0:
            raise ValueError(f"k must be >= 0, got {self.k}")


@dataclass(frozen=True)
class CellReport:
    """Aggregated metrics for one (strategy, k) cell."""

    strategy: Strategy
    k: int
    metrics: MetricsReport
    failures: int

    def __post_init__(self) -> None:
        if (self.k == 0) != (self.strategy is Strategy.ZERO_SHOT):
            raise ValueError(
                f"k must be 0 exactly for zero_shot, got k={self.k} for {self.strategy.value}"
            )
        if self.k < 0:
            raise ValueError(f"k must be >= 0, got {self.k}")
        if not 0 <= self.failures <= self.metrics.n_instances:
            raise ValueError(f"failures must be in [0, n_instances], got {self.failures}")

    def to_json_dict(self) -> dict:
        return to_plain(self)


@dataclass(frozen=True)
class RunReport:
    """Everything one run produced, minus the raw records.

    payload_dict() is the deterministic portion; the metadata block holds
    timestamps and wall-clock and is excluded from replay comparisons.
    """

    template_id: str
    shot_order: ShotOrder
    config: dict
    cells: tuple[CellReport, ...]
    provider_calls: int
    metadata: dict = field(default_factory=dict)

    def payload_dict(self) -> dict:
        return {k: v for k, v in to_plain(self).items() if k != "metadata"}

    def to_json(self) -> str:
        return json.dumps(to_plain(self), sort_keys=True, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "RunReport":
        """Read a report back, checking each cell's rates against its counts."""
        try:
            report = from_plain(cls, json.loads(text))
            for i, cell in enumerate(report.cells):
                m = cell.metrics
                for name, value in rates_from_counts(m.tp, m.fp, m.fn, m.tn).items():
                    if getattr(m, name) != value:
                        raise MetricsError(
                            f"cells[{i}].metrics: {name} is {getattr(m, name)}, but tp {m.tp}, "
                            f"fp {m.fp}, fn {m.fn}, tn {m.tn} give {value}"
                        )
            return report
        except (TypeError, ValueError) as exc:  # ValueError covers bad JSON
            raise RunnerError(f"not a run report: {type(exc).__name__}: {exc}") from None


def index_stamp(corpus: Corpus, backend, include_labels: bool) -> dict:
    """What an index of `corpus`'s train split embedded by `backend` is built
    from: the backend's identity, the label setting, and the split's digest,
    `Corpus.train_sha256`."""
    return {**backend.identity, "include_labels": include_labels,
            "train_sha256": corpus.train_sha256}


def build_index_from_corpus(
    corpus: Corpus, backend, include_labels: bool = True
) -> VectorIndex:
    """Embed every train sample and assemble the retrieval index, stamped
    with index_stamp so that a saved copy can be checked when it is loaded.

    With include_labels on, each sample's labels are appended to the text
    before embedding, so samples sharing a label sit closer together.
    """
    if not corpus.train:
        raise RunnerError("cannot build an index from an empty train split")
    stamp = index_stamp(corpus, backend, include_labels)
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
    return build(entries, count=len(corpus.train), built_from=stamp)


def build_backend(config: ExperimentConfig):
    """The embedding backend the config names."""
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
            raise ConfigError("remote provider requires an endpoint")
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
        raise ConfigError("fixed provider requires fixed_text")
    return FixedProvider(settings.fixed_text)


class _Ranking:
    """One test query's ranking at the largest shot count, and what its
    retrieval records take from it.

    A record at k holds the first k neighbours (all of them when k exceeds
    the ranking, as slicing gives). Its neighbor_ids and similarities are
    prefixes of the tuples here, and their JSON texts are prefixes of the
    texts here, each list encoded once per query rather than once per record.
    """

    __slots__ = ("neighbors", "ids", "similarities", "_ids_text", "_similarities_text")

    def __init__(self, neighbors: list) -> None:
        self.neighbors = neighbors
        self.ids = tuple([n.sample_id for n in neighbors])
        self.similarities = tuple([n.similarity for n in neighbors])
        self._ids_text = json_list_prefixes(str, self.ids)
        self._similarities_text = json_list_prefixes(float, self.similarities)

    def texts(self, k: int) -> dict:
        """The JSON text of the first k ids and similarities, by record field."""
        return {"neighbor_ids": self._ids_text(k), "similarities": self._similarities_text(k)}


def _record(test_id, strategy, k, ranking, request, result) -> PredictionRecord:
    """Build one record from a planned sample and what resolved it.

    `ranking` is the sample's _Ranking under a retrieval strategy, else None.
    `result` is a label set for retrieval labeling (which has no request),
    and a CompletionResult or a ProviderError for the prompt strategies. The
    record's prompt_hash is the digest the request's cache key was built on.
    """
    if ranking is None:
        neighbor_ids = similarities = None
    else:
        neighbor_ids, similarities = ranking.ids[:k], ranking.similarities[:k]
    if request is None:
        return PredictionRecord(test_id, strategy, k, result, neighbor_ids, similarities)
    if isinstance(result, ProviderError):
        return PredictionRecord(
            test_id, strategy, k, frozenset(), neighbor_ids, similarities,
            request.prompt_sha256, error=str(result),
        )
    outcome = parse_labels(result.text)
    return PredictionRecord(
        test_id, strategy, k, outcome.labels, neighbor_ids, similarities,
        request.prompt_sha256, result.text, outcome, result.cached,
    )


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
    backend = embed_backend if embed_backend is not None else build_backend(config)
    # Only prompts use the provider and the cache. Both are set up before any
    # index read or embed call, so a bad setting costs none of that work.
    prompted = not PROMPT_STRATEGIES.isdisjoint(config.strategies)
    if provider is None and prompted:
        provider = _build_provider(config, corpus)
    calls_before = provider.call_count if provider is not None else 0
    cache = ResponseCache(config.cache_dir) if prompted and config.cache_dir else None
    output_dir = Path(config.output_dir)
    partial_path = output_dir / "records.partial.jsonl"
    cells: list[CellReport] = []
    failure = None
    with closing(cache) if cache is not None else nullcontext():
        # One top_k call embeds each test query as it reads it and ranks it once,
        # at the largest shot count; every retrieval cell takes a prefix of that
        # ranking, which top_k guarantees equals a direct call at the smaller k.
        rankings: dict[str, _Ranking] = {}
        if not RETRIEVAL_STRATEGIES.isdisjoint(config.strategies):
            if config.index_path:
                index = load_index(
                    config.index_path,
                    [sample.id for sample in corpus.train],
                    index_stamp(corpus, backend, config.include_labels_in_index),
                )
            else:
                index = build_index_from_corpus(corpus, backend, config.include_labels_in_index)
            queries = (backend.embed(EmbeddingInput(code=sample.code)) for sample in corpus.test)
            rankings = {
                sample.id: _Ranking(neighbors)
                for sample, neighbors in zip(corpus.test, top_k(index, queries, max_k))
            }

        # Each test sample's random shots for every shot count come from at most
        # two draws (see select_random), made once rather than once per cell.
        random_shots: dict = {}
        if Strategy.RANDOM_FEW_SHOT in config.strategies:
            for sample in corpus.test:
                random_shots[sample.id] = select_random(
                    corpus.train, config.shot_counts, config.seed, sample.id
                )

        settings = config.provider
        new_request = functools.partial(
            CompletionRequest,
            settings.model_id,
            temperature=settings.temperature,
            max_output_tokens=settings.max_output_tokens,
        )
        # One PromptHasher per test sample.
        hashers: dict = {}

        def plan(sample, strategy: Strategy, k: int) -> tuple:
            """One test sample's ranking (retrieval strategies) and, unless it
            labels by retrieval, the completion request for its prompt.

            A few-shot request is planned by its digest, which the sample's
            hasher extends from the previous shot count's; its prompt is
            rendered only if the cache misses it. The zero-shot prompt has no
            shots to share and is rendered at once.
            """
            ranking = rankings[sample.id] if strategy in RETRIEVAL_STRATEGIES else None
            if strategy is Strategy.RETRIEVAL_LABELING:
                return ranking, None
            if strategy is Strategy.ZERO_SHOT:
                return ranking, new_request(prompt=render((), sample.code))
            if strategy is Strategy.RANDOM_FEW_SHOT:
                shots = random_shots[sample.id][k]
            else:
                shots = shots_from_neighbors(
                    ranking.neighbors[:k], samples_by_id, config.shot_order
                )
            hasher = hashers.get(sample.id)
            if hasher is None:
                hasher = hashers[sample.id] = PromptHasher(sample.code)
            request = new_request(
                prompt_sha256=hasher.digest(shots), render=lambda: render(shots, sample.code)
            )
            return ranking, request

        sweep = [
            (strategy, k)
            for strategy in config.strategies
            for k in ((0,) if strategy is Strategy.ZERO_SHOT else config.shot_counts)
        ]
        try:
            output_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise RunnerError(
                f"output_dir {output_dir} is not a usable directory: {exc}"
            ) from None
        # Nothing lands if the loop raises; a strict abort breaks out of it,
        # so the finished cells land as the checkpoint.
        write = json_writer(PredictionRecord)
        # A sweep sees few distinct answers (see parse_labels), so each parse
        # outcome's text is written once and given to the records that hold it.
        parsed_text = functools.lru_cache(maxsize=1024)(json_writer(ParseOutcome))
        truths = [sample.truth for sample in corpus.test]
        with atomic_open(partial_path) as raw, io.TextIOWrapper(raw, encoding="utf-8") as sink:
            for strategy, k in sweep:
                plans = [plan(sample, strategy, k) for sample in corpus.test]
                if strategy is Strategy.RETRIEVAL_LABELING:
                    results = [
                        retrieval_label(ranking.neighbors[:k], samples_by_id)
                        for ranking, _ in plans
                    ]
                else:
                    results = complete([request for _, request in plans], provider, cache)
                    if config.strict:
                        failure = next((r for r in results if isinstance(r, ProviderError)), None)
                        if failure is not None:
                            break
                preds = []
                failures = 0
                for sample, (ranking, request), result in zip(corpus.test, plans, results):
                    record = _record(sample.id, strategy, k, ranking, request, result)
                    texts = ranking.texts(k) if ranking is not None else {}
                    if record.parsed is not None:
                        texts["parsed"] = parsed_text(record.parsed)
                    sink.write(write(record, **texts) + "\n")
                    preds.append(record.pred)
                    failures += record.error is not None
                sink.flush()
                cells.append(_score_cell(strategy, k, zip(truths, preds), failures))
    if failure is not None:
        raise StrictRunError(
            f"provider failure under strict mode: {failure}", str(partial_path)
        ) from failure
    os.replace(partial_path, output_dir / "records.jsonl")

    provider_calls = (
        provider.call_count - calls_before if provider is not None else 0
    )
    finished_at = time.time()
    report = RunReport(
        template_id=config.template_id,
        shot_order=config.shot_order,
        config=to_plain(config),
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
    """Read a records.jsonl file back into PredictionRecords, checking each line
    against the PredictionRecord annotations; a bad line raises RunnerError
    naming the file and the line."""
    records = []
    with open(path, "rb") as handle:
        try:
            for number, line in enumerate(handle, 1):
                if line.strip():
                    data = json.loads(line.decode())
                    records.append(from_plain(PredictionRecord, data))
        except (TypeError, ValueError) as exc:  # ValueError covers bad JSON and bad UTF-8
            raise RunnerError(
                f"{path}: line {number}: not a prediction record: {type(exc).__name__}: {exc}"
            ) from None
    return records


def cells_from_records(records, corpus: Corpus) -> tuple:
    """Compute per-cell metrics from a prediction log.

    run() scores each cell with _score_cell, as this function does, so
    recomputing from a saved records.jsonl must reproduce the report's cells;
    this is the audit path for checking that reports and records agree. A
    record whose test_id the corpus does not hold raises RunnerError naming it.
    """
    samples_by_id = corpus.by_id()
    grouped: dict = {}
    for record in records:
        if record.test_id not in samples_by_id:
            raise RunnerError(f"record test_id {record.test_id!r} is not in the corpus")
        grouped.setdefault((record.strategy, record.k), []).append(record)
    return tuple(
        _score_cell(
            strategy,
            k,
            [(samples_by_id[r.test_id].truth, r.pred) for r in cell_records],
            sum(r.error is not None for r in cell_records),
        )
        for (strategy, k), cell_records in grouped.items()
    )


def _score_cell(strategy: Strategy, k: int, pairs, failures: int) -> CellReport:
    """One (strategy, k) cell's report, from its records' (truth, pred) pairs
    of label sets, scored from their count table."""
    return CellReport(
        strategy=strategy, k=k, metrics=metrics_report(Counter(pairs)), failures=failures
    )


def emit_table(report: RunReport) -> str:
    """Render the report as CSV, one row per (strategy, k) cell.

    Metric columns appear in METRIC_COLUMNS order (subset accuracy, Hamming
    accuracy, partial match, precision, recall, F1, partial match against the
    truth) as percentages with two decimals.
    """
    metric_names = (column for column, _ in METRIC_COLUMNS)
    lines = [",".join(("strategy", "k", *metric_names, "failures"))]
    for cell in report.cells:
        values = (f"{100 * getattr(cell.metrics, name):.2f}" for _, name in METRIC_COLUMNS)
        lines.append(",".join((cell.strategy.value, str(cell.k), *values, str(cell.failures))))
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
    for _, metric in METRIC_COLUMNS[:6]:
        curves[metric] = {
            strategy: [[cell.k, getattr(cell.metrics, metric)] for cell in cells]
            for strategy, cells in per_strategy.items()
        }
    return curves
