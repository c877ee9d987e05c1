"""Experiment configuration: dataclasses plus a strict YAML loader.

The dataclass annotations are the schema: unknown keys and mistyped values
fail loudly instead of silently running a default or another setting.
from_plain, which applies them, also reads the run artifacts back. It raises
TypeError naming the dotted path of a value that does not fit, and load_config
turns that into a ConfigError. to_plain writes report.json. json_writer writes
each line of records.jsonl as the same JSON text, from one template per
dataclass; it shares no code with to_plain, so to_plain can check its output.
"""

from __future__ import annotations

import functools
import json
import math
import operator
import re
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from enum import Enum
from itertools import accumulate
from json.encoder import encode_basestring_ascii
from pathlib import Path
from types import UnionType
from typing import get_args, get_origin, get_type_hints

import yaml

from .fileio import is_utf8_text
from .llmclient import CompletionRequest
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
        if not 0 < self.timeout_s < math.inf:  # also false for NaN
            raise ConfigError(f"timeout_s must be a finite number > 0, got {self.timeout_s}")
        if not is_utf8_text(self.fixed_text):  # it is cached as UTF-8
            raise ConfigError("fixed_text is not UTF-8 text: it holds a lone surrogate")
        try:  # the checks every request of the run would make, before any call
            CompletionRequest(self.model_id, "-", self.temperature, self.max_output_tokens)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one experiment run needs, resolvable without a network."""

    corpus_path: str
    output_dir: str
    strategies: tuple[Strategy, ...] = (
        Strategy.ZERO_SHOT,
        Strategy.RANDOM_FEW_SHOT,
        Strategy.RETRIEVAL_FEW_SHOT,
        Strategy.RETRIEVAL_LABELING,
    )
    shot_counts: tuple[int, ...] = DEFAULT_SHOT_COUNTS
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


def from_plain(cls, data):
    """Build the dataclass `cls` from plain data, as JSON or YAML decodes it,
    converting each value to its annotation: a list to a tuple or frozenset, a
    string to an enum, a mapping to a nested dataclass; an int passes as a float,
    a bool not as an int. A value that does not fit, or a missing or unknown key,
    raises TypeError naming its path, such as ``cells[0].metrics.micro_f1``. A
    nested dataclass's own check keeps its exception type, and its message is
    prefixed with that dataclass's path, such as ``cells[0].metrics: ``."""
    return _converter(cls)(data, "")


@functools.cache
def _converter(hint):
    """The function (value, key) -> value that converts to `hint`, built once per hint."""
    origin = get_origin(hint)
    if origin is UnionType:  # `X | None`
        inner = _converter(get_args(hint)[0])
        return lambda value, key: None if value is None else inner(value, key)
    if origin in (tuple, frozenset):
        item = _converter(get_args(hint)[0])

        def convert_sequence(value, key):
            if type(value) is not list:
                raise TypeError(f"{key} must be a list, got {type(value).__name__}")
            return origin([item(v, f"{key}[{i}]") for i, v in enumerate(value)])

        return convert_sequence
    if is_dataclass(hint):
        converters = {name: _converter(h) for name, h in _hints(hint).items()}
        required = {
            f.name for f in fields(hint) if f.default is MISSING and f.default_factory is MISSING
        }

        def convert_dataclass(value, key):
            if not isinstance(value, dict):
                got = type(value).__name__
                raise TypeError(f"{key or hint.__name__} must be a mapping, got {got}")
            prefix = f"{key}." if key else ""
            if not required <= value.keys() <= converters.keys():
                missing, unknown = required - value.keys(), value.keys() - converters.keys()
                named = ", ".join(sorted(prefix + str(name) for name in missing or unknown))
                raise TypeError(f"{'missing' if missing else 'unknown'} key(s): {named}")
            values = {name: converters[name](v, prefix + name) for name, v in value.items()}
            try:
                return hint(**values)
            except ValueError as exc:  # a __post_init__ check, named by its path
                if not key:
                    raise
                raise type(exc)(f"{key}: {exc}") from None

        return convert_dataclass
    if issubclass(hint, Enum):
        members = {member.value: member for member in hint}
        noun = re.sub(r"(?<=[a-z])([A-Z])", r"_\1", hint.__name__).lower()

        def convert_enum(value, key):
            try:
                return members[value]
            except (KeyError, TypeError):  # TypeError: an unhashable value
                raise TypeError(f"unknown {noun} {value!r} in {key}") from None

        return convert_enum

    def convert_leaf(value, key):
        if type(value) is hint or (hint is float and type(value) is int) or (
            type(value) is not bool and isinstance(value, hint)
        ):
            return value
        raise TypeError(f"{key} must be {hint.__name__}, got {type(value).__name__}")

    return convert_leaf


@functools.cache
def _hints(cls):
    """The annotations of dataclass `cls`, resolved once."""
    return get_type_hints(cls)


def to_plain(value):
    """The inverse of from_plain: `value` as plain data that JSON can encode,
    following its annotations. A dataclass becomes a mapping of its fields, an
    enum its value, a tuple a list, and a frozenset of enum members a list in
    the enum's declaration order; any other value passes through unchanged."""
    return _plain(value, type(value))


def _plain(value, hint):
    origin = get_origin(hint)
    if origin is UnionType:  # `X | None`
        return None if value is None else _plain(value, get_args(hint)[0])
    if origin is frozenset:  # of enum members
        return [m.value for m in get_args(hint)[0] if m in value]
    if origin is tuple:
        return [_plain(v, get_args(hint)[0]) for v in value]
    if is_dataclass(hint):
        return {name: _plain(getattr(value, name), h) for name, h in _hints(hint).items()}
    return value.value if isinstance(value, Enum) else value


@functools.cache
def json_writer(hint):
    """The function value -> text equal to json.dumps(to_plain(value),
    sort_keys=True) for values annotated `hint`, built once per hint. A
    dataclass fills one template, its keys in sorted order, from one
    attrgetter; enum members and label sets have cached texts; a str is
    escaped by the function json.dumps calls, and a float is its repr unless
    JSON spells it otherwise. Any other value goes through json.dumps itself.

    A dataclass's writer also takes the text of any of its fields ready-made,
    by name, as write(value, name=text); the caller answers for that text
    being what the field's own writer would give."""
    origin = get_origin(hint)
    if origin is UnionType:  # `X | None`
        inner = json_writer(get_args(hint)[0])
        return lambda value: "null" if value is None else inner(value)
    if origin is frozenset:  # of enum members
        members = tuple(get_args(hint)[0])
        return functools.cache(
            lambda subset: json.dumps([m.value for m in members if m in subset])
        )
    if origin is tuple:  # of one item type
        item = json_writer(get_args(hint)[0])
        return lambda value: _json_list(map(item, value))
    if is_dataclass(hint):
        hints = get_type_hints(hint)
        names = sorted(hints)
        writers = tuple(json_writer(hints[name]) for name in names)
        template = "{%s}" % ", ".join(encode_basestring_ascii(name) + ": %s" for name in names)
        # attrgetter returns a tuple from two names up.
        values = operator.attrgetter(*names) if len(names) > 1 else (
            lambda value: [getattr(value, name) for name in names]
        )

        def write(value, **texts):
            if not texts:
                return template % tuple([w(v) for w, v in zip(writers, values(value))])
            text = template % tuple([
                texts.pop(name) if name in texts else w(v)
                for name, w, v in zip(names, writers, values(value))
            ])
            if texts:
                raise TypeError(f"{hint.__name__} has no field(s) {', '.join(sorted(texts))}")
            return text

        return write
    if issubclass(hint, Enum):
        return {member: json.dumps(member.value) for member in hint}.__getitem__
    if hint is str:
        return encode_basestring_ascii
    if hint is int:
        return int.__repr__
    if hint is float:
        return _float_text
    if hint is bool:
        return {True: "true", False: "false"}.__getitem__
    return functools.partial(json.dumps, sort_keys=True)


def _float_text(value: float) -> str:
    """A float as JSON: its repr, unless it is nan or inf, which JSON spells
    NaN and Infinity."""
    return repr(value) if math.isfinite(value) else json.dumps(value)


# What json.dumps writes between two list items.
_ITEM_SEPARATOR = ", "


def _json_list(texts) -> str:
    """A JSON list of items already written as JSON."""
    return "[" + _ITEM_SEPARATOR.join(texts) + "]"


def json_list_prefixes(item_hint, values):
    """The function k -> json_writer(tuple[item_hint, ...])(values[:k]), all
    of `values` for k past its end, with each item written once.

    Every prefix's text is a slice of the whole list's text, cut where its
    k-th item ends, plus the closing bracket."""
    items = list(map(json_writer(item_hint), values))
    text = _json_list(items)
    # Each item ends its length plus one separator past the one before; the
    # first has no separator and ends its length past the "[".
    ends = list(accumulate(
        [len(_ITEM_SEPARATOR) + len(item) for item in items],
        initial=1 - len(_ITEM_SEPARATOR),
    ))
    ends[0] = 1
    last = len(items)
    return lambda k: text[:ends[min(k, last)]] + "]"


class _UniqueKeyLoader(yaml.SafeLoader):
    """The loader of yaml.safe_load, except that a mapping that holds one key
    twice is an error rather than a mapping that keeps the last value."""

    def construct_mapping(self, node, deep=False):
        seen = set()
        # A merge key (<<) is left to the base class, which lets the mapping's
        # own keys override the keys it merges.
        for key_node, _ in node.value:
            if isinstance(key_node, yaml.ScalarNode) and key_node.tag != "tag:yaml.org,2002:merge":
                key = self.construct_object(key_node)
                if key in seen:
                    raise yaml.constructor.ConstructorError(
                        None, None, f"found duplicate key {key!r}", key_node.start_mark
                    )
                seen.add(key)
        return super().construct_mapping(node, deep)


def load_config(path: str | Path) -> ExperimentConfig:
    """Load an ExperimentConfig from a YAML file, checking each key against its
    annotation; a key given twice in one mapping is rejected."""
    try:
        raw = yaml.load(Path(path).read_text(encoding="utf-8"), Loader=_UniqueKeyLoader)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except yaml.YAMLError as exc:
        raise ConfigError(f"malformed YAML in {path}: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")
    try:
        return from_plain(ExperimentConfig, raw)
    except TypeError as exc:
        raise ConfigError(str(exc)) from None
