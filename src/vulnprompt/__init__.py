"""Retrieval-augmented few-shot prompting for multi-label CWE detection.

The package covers the full experiment loop: corpus ingestion, deterministic
or remote embeddings, exact cosine retrieval, prompt construction under
three strategies, cached completion providers, a retrieval-only labeling
baseline, multi-label metrics, and a sweep runner with CSV/JSON reports.
"""

from .config import DEFAULT_SHOT_COUNTS, EmbeddingSettings, ExperimentConfig, ProviderSettings, load_config
from .corpus import CodeSample, Corpus, IngestError, ingest, validate
from .embedding import (
    EmbeddingInput,
    EmbeddingVector,
    HashedBagOfTokensBackend,
    RemoteEmbeddingBackend,
)
from .labeling import ParseOutcome, parse_labels, retrieval_label
from .labels import ALL_LABELS, CweLabel, format_labels, label_set
from .llmclient import (
    CompletionRequest,
    CompletionResult,
    FixedProvider,
    OracleProvider,
    ParrotProvider,
    RemoteChatProvider,
    ResponseCache,
    complete,
    oracle_for_corpus,
)
from .metrics import LabeledPair, MetricsReport, report
from .prompting import ShotOrder, Strategy, render, select_random
from .runner import (
    PredictionRecord,
    RunReport,
    RunnerError,
    StrictRunError,
    build_index_from_corpus,
    cells_from_records,
    emit_curves,
    emit_table,
    load_records,
    run,
)
from .synthetic import make_synthetic_corpus
from .vecindex import IndexEntry, Neighbor, VectorIndex, build, load_index, save_index, top_k

__version__ = "0.1.0"

__all__ = [
    "ALL_LABELS",
    "CodeSample",
    "CompletionRequest",
    "CompletionResult",
    "Corpus",
    "CweLabel",
    "DEFAULT_SHOT_COUNTS",
    "EmbeddingInput",
    "EmbeddingSettings",
    "EmbeddingVector",
    "ExperimentConfig",
    "FixedProvider",
    "HashedBagOfTokensBackend",
    "IndexEntry",
    "IngestError",
    "LabeledPair",
    "MetricsReport",
    "Neighbor",
    "OracleProvider",
    "ParrotProvider",
    "ParseOutcome",
    "PredictionRecord",
    "ProviderSettings",
    "RemoteChatProvider",
    "RemoteEmbeddingBackend",
    "ResponseCache",
    "RunReport",
    "RunnerError",
    "ShotOrder",
    "Strategy",
    "StrictRunError",
    "VectorIndex",
    "build",
    "build_index_from_corpus",
    "cells_from_records",
    "complete",
    "emit_curves",
    "emit_table",
    "format_labels",
    "ingest",
    "label_set",
    "load_config",
    "load_index",
    "load_records",
    "make_synthetic_corpus",
    "oracle_for_corpus",
    "parse_labels",
    "render",
    "report",
    "retrieval_label",
    "run",
    "save_index",
    "select_random",
    "top_k",
    "validate",
]
