"""Experiment configuration: dataclasses plus a strict YAML loader.

Unknown keys are rejected rather than ignored so typos in config files fail
loudly instead of silently running a default.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import yaml

from .prompting import TEMPLATE_ID, ShotOrder, Strategy

DEFAULT_SHOT_COUNTS = tuple(range(1, 11)) + (20,)


class ConfigError(ValueError):
    """Raised for unreadable, unknown-key, or inconsistent configuration."""


@dataclass(frozen=True)
class EmbeddingSettings:
    """Which embedding backend to use and how to reach it."""

    backend: str = "hashed"
    dimension: int = 256
    endpoint: str | None = None
    model: str | None = None
    api_key_env: str = "EMBEDDING_API_KEY"
    max_input_chars: int = 100_000

    def __post_init__(self) -> None:
        if self.backend not in ("hashed", "remote"):
            raise ConfigError(f"unknown embedding backend {self.backend!r}")
        if self.dimension < 1:
            raise ConfigError(f"embedding dimension must be >= 1, got {self.dimension}")
        if self.backend == "remote" and (not self.endpoint or not self.model):
            raise ConfigError("remote embedding backend requires endpoint and model")


@dataclass(frozen=True)
class ProviderSettings:
    """Which completion provider to use and its request defaults."""

    type: str = "remote"
    model_id: str = "detector-model"
    endpoint: str | None = None
    api_key_env: str = "LLM_API_KEY"
    temperature: float = 0.0
    max_output_tokens: int = 128
    fixed_text: str = ""
    max_in_flight: int = 4
    retries: int = 3
    timeout_s: float = 30.0

    def __post_init__(self) -> None:
        if self.type not in ("remote", "oracle", "parrot", "fixed"):
            raise ConfigError(f"unknown provider type {self.type!r}")
        if self.max_in_flight < 1:
            raise ConfigError(f"max_in_flight must be >= 1, got {self.max_in_flight}")
        if self.retries < 1:
            raise ConfigError(f"retries must be >= 1, got {self.retries}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one experiment run needs, resolvable without a network."""

    corpus_path: str
    output_dir: str
    strategies: tuple = (
        Strategy.ZERO_SHOT,
        Strategy.RANDOM_FEW_SHOT,
        Strategy.RETRIEVAL_FEW_SHOT,
        Strategy.RETRIEVAL_LABELING,
    )
    shot_counts: tuple = DEFAULT_SHOT_COUNTS
    seed: int = 0
    index_path: str | None = None
    cache_dir: str | None = None
    template_id: str = TEMPLATE_ID
    shot_order: ShotOrder = ShotOrder.SIMILAR_FIRST
    include_labels_in_index: bool = True
    embedding: EmbeddingSettings = field(default_factory=EmbeddingSettings)
    provider: ProviderSettings = field(default_factory=ProviderSettings)
    strict: bool = False

    def __post_init__(self) -> None:
        if not self.corpus_path:
            raise ConfigError("corpus_path must be non-empty")
        if not self.output_dir:
            raise ConfigError("output_dir must be non-empty")
        if not self.strategies:
            raise ConfigError("at least one strategy is required")
        if len(set(self.strategies)) != len(self.strategies):
            raise ConfigError("strategies must be unique")
        if not self.shot_counts:
            raise ConfigError("at least one shot count is required")
        for k in self.shot_counts:
            if not isinstance(k, int) or k < 1:
                raise ConfigError(f"shot counts must be integers >= 1, got {k!r}")
        if len(set(self.shot_counts)) != len(self.shot_counts):
            raise ConfigError("shot counts must be unique")
        if list(self.shot_counts) != sorted(self.shot_counts):
            raise ConfigError("shot counts must be ascending")
        # The field is echoed into every report; it names the one template
        # that prompting renders, so any other value would mislabel the run.
        if self.template_id != TEMPLATE_ID:
            raise ConfigError(
                f"unknown template_id {self.template_id!r}; only {TEMPLATE_ID!r} exists"
            )

    def to_json_dict(self) -> dict:
        data = asdict(self)
        data["strategies"] = [s.value for s in self.strategies]
        data["shot_counts"] = list(self.shot_counts)
        data["shot_order"] = self.shot_order.value
        return data


def _check_keys(section: str, data: dict, allowed) -> None:
    unknown = set(data) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown {section} key(s): {', '.join(sorted(unknown))}")


def _section(name: str, data, cls):
    """Build a settings dataclass from one config section, rejecting bad keys."""
    if not isinstance(data, dict):
        raise ConfigError(f"{name} must be a mapping, got {type(data).__name__}")
    _check_keys(name, data, {f.name for f in fields(cls)})
    try:
        return cls(**data)
    except TypeError as exc:
        raise ConfigError(f"invalid {name} settings: {exc}") from None


def _sequence(name: str, value) -> tuple:
    if not isinstance(value, list):
        raise ConfigError(f"{name} must be a list, got {type(value).__name__}")
    return tuple(value)


def load_config(path: str | Path) -> ExperimentConfig:
    """Load an ExperimentConfig from a YAML file, rejecting unknown keys."""
    try:
        raw = yaml.safe_load(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except yaml.YAMLError as exc:
        raise ConfigError(f"malformed YAML in {path}: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")

    top_fields = {f.name for f in fields(ExperimentConfig)}
    _check_keys("config", raw, top_fields)

    kwargs = dict(raw)
    if "strategies" in kwargs:
        try:
            kwargs["strategies"] = tuple(
                Strategy(s) for s in _sequence("strategies", kwargs["strategies"])
            )
        except ValueError as exc:
            raise ConfigError(f"unknown strategy: {exc}") from None
    if "shot_counts" in kwargs:
        kwargs["shot_counts"] = _sequence("shot_counts", kwargs["shot_counts"])
    if "shot_order" in kwargs:
        try:
            kwargs["shot_order"] = ShotOrder(kwargs["shot_order"])
        except ValueError:
            raise ConfigError(f"unknown shot_order {kwargs['shot_order']!r}") from None
    if "embedding" in kwargs:
        kwargs["embedding"] = _section("embedding", kwargs["embedding"], EmbeddingSettings)
    if "provider" in kwargs:
        kwargs["provider"] = _section("provider", kwargs["provider"], ProviderSettings)

    try:
        return ExperimentConfig(**kwargs)
    except TypeError as exc:
        raise ConfigError(f"invalid config: {exc}") from None
