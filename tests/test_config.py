"""Experiment config: defaults, YAML loading, and strict key checking."""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

import pytest
import yaml

from vulnprompt.config import (
    DEFAULT_SHOT_COUNTS,
    ConfigError,
    EmbeddingSettings,
    ExperimentConfig,
    ProviderSettings,
    from_plain,
    json_writer,
    load_config,
    to_plain,
)
from vulnprompt.prompting import TEMPLATE_ID, ShotOrder, Strategy


def minimal_yaml(tmp_path, extra=None):
    data = {
        "corpus_path": "corpus.jsonl",
        "output_dir": "out",
    }
    if extra:
        data.update(extra)
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(data), encoding="utf-8")
    return path


def test_default_shot_counts():
    assert DEFAULT_SHOT_COUNTS == (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 20)


def test_defaults():
    config = ExperimentConfig(corpus_path="c.jsonl", output_dir="out")
    assert config.shot_counts == DEFAULT_SHOT_COUNTS
    assert config.template_id == TEMPLATE_ID
    assert config.shot_order is ShotOrder.SIMILAR_FIRST
    assert config.include_labels_in_index is True
    assert config.embedding.backend == "hashed"
    assert config.embedding.dimension == 256
    assert config.provider.temperature == 0.0
    assert config.provider.max_output_tokens == 128
    assert config.strict is False
    assert len(config.strategies) == 4


def test_load_minimal_yaml(tmp_path):
    config = load_config(minimal_yaml(tmp_path))
    assert config.corpus_path == "corpus.jsonl"
    assert config.output_dir == "out"


def test_load_full_yaml(tmp_path):
    path = minimal_yaml(
        tmp_path,
        {
            "strategies": ["zero_shot", "retrieval_labeling"],
            "shot_counts": [1, 5, 20],
            "seed": 42,
            "shot_order": "similar_last",
            "include_labels_in_index": False,
            "cache_dir": "cache",
            "embedding": {"backend": "hashed", "dimension": 64},
            "provider": {"type": "parrot"},
            "strict": True,
        },
    )
    config = load_config(path)
    assert config.strategies == (Strategy.ZERO_SHOT, Strategy.RETRIEVAL_LABELING)
    assert config.shot_counts == (1, 5, 20)
    assert config.seed == 42
    assert config.shot_order is ShotOrder.SIMILAR_LAST
    assert config.include_labels_in_index is False
    assert config.embedding.dimension == 64
    assert config.provider.type == "parrot"
    assert config.strict is True


def test_unknown_top_level_key_rejected(tmp_path):
    with pytest.raises(ConfigError, match="shots_counts"):
        load_config(minimal_yaml(tmp_path, {"shots_counts": [1]}))


def test_unknown_embedding_key_rejected(tmp_path):
    with pytest.raises(ConfigError, match="dimensions"):
        load_config(minimal_yaml(tmp_path, {"embedding": {"dimensions": 64}}))


def test_unknown_provider_key_rejected(tmp_path):
    with pytest.raises(ConfigError, match="modell"):
        load_config(minimal_yaml(tmp_path, {"provider": {"modell": "x"}}))


def test_unknown_strategy_rejected(tmp_path):
    with pytest.raises(ConfigError, match="strategy"):
        load_config(minimal_yaml(tmp_path, {"strategies": ["few_shot"]}))


def test_unknown_shot_order_rejected(tmp_path):
    with pytest.raises(ConfigError, match="shot_order"):
        load_config(minimal_yaml(tmp_path, {"shot_order": "shuffled"}))


def test_malformed_yaml_rejected(tmp_path):
    path = tmp_path / "config.yaml"
    path.write_text("corpus_path: [unclosed", encoding="utf-8")
    with pytest.raises(ConfigError, match="malformed YAML"):
        load_config(path)


@pytest.mark.parametrize(
    "text, key, line",
    [
        ("corpus_path: c.jsonl\noutput_dir: out\nseed: 1\nseed: 2\n", "seed", 4),
        ("corpus_path: c.jsonl\noutput_dir: out\nprovider:\n  retries: 2\n  retries: 3\n",
         "retries", 5),
    ],
    ids=["top-level", "nested"],
)
def test_a_key_given_twice_is_rejected_naming_it_and_its_line(tmp_path, text, key, line):
    path = tmp_path / "config.yaml"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ConfigError, match=rf"duplicate key '{key}'\s+in .*, line {line},"):
        load_config(path)


def test_missing_file_rejected(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "absent.yaml")


def test_template_id_other_than_the_rendered_one_rejected(tmp_path):
    config = load_config(minimal_yaml(tmp_path, {"template_id": TEMPLATE_ID}))
    assert config.template_id == TEMPLATE_ID
    with pytest.raises(ConfigError, match="template_id 'my-template/v9'"):
        load_config(minimal_yaml(tmp_path, {"template_id": "my-template/v9"}))


@pytest.mark.parametrize(
    "extra, message",
    [
        ({"embedding": None}, "embedding must be a mapping, got NoneType"),
        ({"provider": ["type"]}, "provider must be a mapping, got list"),
        ({"shot_counts": 5}, "shot_counts must be a list, got int"),
        ({"strategies": "zero_shot"}, "strategies must be a list, got str"),
        ({"embedding": {"dimension": "wide"}}, "embedding.dimension must be int, got str"),
        (
            {"provider": {"max_in_flight": None}},
            "provider.max_in_flight must be int, got NoneType",
        ),
    ],
    ids=[
        "null-embedding",
        "list-provider",
        "int-shot-counts",
        "str-strategies",
        "str-dimension",
        "null-max-in-flight",
    ],
)
def test_malformed_section_names_its_key(tmp_path, extra, message):
    with pytest.raises(ConfigError, match=message):
        load_config(minimal_yaml(tmp_path, extra))


@pytest.mark.parametrize(
    "extra, message",
    [
        ({"include_labels_in_index": "false"}, "include_labels_in_index must be bool, got str"),
        ({"strict": "no"}, "strict must be bool, got str"),
        ({"seed": [1, 2]}, "seed must be int, got list"),
        ({"seed": True}, "seed must be int, got bool"),
        ({"shot_counts": [1, True]}, "shot_counts[1] must be int, got bool"),
        ({"corpus_path": 5}, "corpus_path must be str, got int"),
        ({"output_dir": 7}, "output_dir must be str, got int"),
        ({"index_path": 3}, "index_path must be str, got int"),
        ({"provider": {"max_in_flight": 2.5}}, "provider.max_in_flight must be int, got float"),
        ({"provider": {"temperature": "0"}}, "provider.temperature must be float, got str"),
        ({"embedding": {"dimension": True}}, "embedding.dimension must be int, got bool"),
    ],
    ids=[
        "str-include-labels",
        "str-strict",
        "list-seed",
        "bool-seed",
        "bool-shot-count",
        "int-corpus-path",
        "int-output-dir",
        "int-index-path",
        "float-max-in-flight",
        "str-temperature",
        "bool-dimension",
    ],
)
def test_mistyped_value_names_its_key(tmp_path, extra, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        load_config(minimal_yaml(tmp_path, extra))


def test_int_for_a_float_is_kept_as_written(tmp_path):
    config = load_config(
        minimal_yaml(tmp_path, {"provider": {"temperature": 0, "timeout_s": 5}})
    )
    assert type(config.provider.temperature) is int
    assert to_plain(config)["provider"]["temperature"] == 0
    assert config.provider.timeout_s == 5
    with pytest.raises(ConfigError, match="timeout_s must be float, got bool"):
        load_config(minimal_yaml(tmp_path, {"provider": {"timeout_s": True}}))


@pytest.mark.parametrize(
    "provider, message",
    [
        ({"temperature": -1}, "temperature must be >= 0, got -1"),
        ({"temperature": float("nan")}, "temperature must be >= 0, got nan"),
        ({"temperature": float("inf")}, "temperature must be finite, got inf"),
        ({"model_id": ""}, "model_id must be non-empty"),
        ({"max_output_tokens": 0}, "max_output_tokens must be >= 1, got 0"),
        ({"timeout_s": 0}, "timeout_s must be a finite number > 0, got 0"),
        ({"timeout_s": -2.5}, "timeout_s must be a finite number > 0, got -2.5"),
        ({"timeout_s": float("nan")}, "timeout_s must be a finite number > 0, got nan"),
        ({"timeout_s": float("inf")}, "timeout_s must be a finite number > 0, got inf"),
    ],
    ids=[
        "negative-temperature",
        "nan-temperature",
        "infinite-temperature",
        "empty-model-id",
        "zero-max-output-tokens",
        "zero-timeout",
        "negative-timeout",
        "nan-timeout",
        "infinite-timeout",
    ],
)
def test_provider_request_fields_checked_at_load(tmp_path, provider, message):
    with pytest.raises(ConfigError, match=f"provider: {message}"):
        load_config(minimal_yaml(tmp_path, {"provider": provider}))
    with pytest.raises(ConfigError, match=message):
        ProviderSettings(**provider)


def test_shot_count_validation():
    base = dict(corpus_path="c", output_dir="o")
    with pytest.raises(ConfigError, match="unique"):
        ExperimentConfig(**base, shot_counts=(1, 1))
    with pytest.raises(ConfigError, match="ascending"):
        ExperimentConfig(**base, shot_counts=(5, 1))
    with pytest.raises(ConfigError, match=">= 1"):
        ExperimentConfig(**base, shot_counts=(0, 1))
    with pytest.raises(ConfigError, match="at least one"):
        ExperimentConfig(**base, shot_counts=())


def test_strategies_must_be_unique():
    with pytest.raises(ConfigError, match="strategies must be unique"):
        ExperimentConfig(
            corpus_path="c",
            output_dir="o",
            strategies=(Strategy.RETRIEVAL_LABELING, Strategy.RETRIEVAL_LABELING),
        )


@pytest.mark.parametrize(
    "empty, message",
    [
        ({"corpus_path": ""}, "corpus_path must be non-empty"),
        ({"output_dir": ""}, "output_dir must be non-empty"),
        ({"strategies": ()}, "at least one strategy is required"),
    ],
    ids=["corpus-path", "output-dir", "strategies"],
)
def test_empty_required_values_rejected(empty, message):
    with pytest.raises(ConfigError, match=message):
        ExperimentConfig(**{"corpus_path": "c", "output_dir": "o", **empty})


def test_embedding_settings_validation():
    with pytest.raises(ConfigError, match="backend"):
        EmbeddingSettings(backend="tfidf")
    with pytest.raises(ConfigError, match="dimension"):
        EmbeddingSettings(dimension=0)
    with pytest.raises(ConfigError, match="endpoint and model"):
        EmbeddingSettings(backend="remote")


def test_provider_settings_validation():
    with pytest.raises(ConfigError, match="provider type"):
        ProviderSettings(type="local")
    with pytest.raises(ConfigError, match="max_in_flight"):
        ProviderSettings(max_in_flight=0)
    with pytest.raises(ConfigError, match="retries must be >= 1"):
        ProviderSettings(retries=0)


@dataclass(frozen=True)
class OneField:
    name: str


@dataclass(frozen=True)
class NoFields:
    pass


@pytest.mark.parametrize(
    "value",
    [
        ExperimentConfig(corpus_path="c", output_dir="o", seed=-3),
        ExperimentConfig(
            corpus_path="caf\u00e9", output_dir="o", provider=ProviderSettings(temperature=0.5)
        ),
        OneField("x"),
        NoFields(),
    ],
    ids=["config", "non-ascii-config", "one-field", "no-fields"],
)
def test_json_writer_writes_the_text_json_dumps_writes(value):
    assert json_writer(type(value))(value) == json.dumps(to_plain(value), sort_keys=True)


def test_to_plain_serializes_enums():
    config = ExperimentConfig(corpus_path="c", output_dir="o")
    data = to_plain(config)
    assert data["strategies"] == [
        "zero_shot",
        "random_few_shot",
        "retrieval_few_shot",
        "retrieval_labeling",
    ]
    assert data["shot_order"] == "similar_first"
    assert data["shot_counts"] == list(DEFAULT_SHOT_COUNTS)
    assert data["embedding"]["backend"] == "hashed"
    assert from_plain(ExperimentConfig, data) == config
