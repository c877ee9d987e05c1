"""Golden digests of the run artifacts on the standard fixture.

Each case runs the full sweep on the standard synthetic corpus (seed 7,
n_per_label 25) and compares the SHA-256 of records.jsonl, report.csv and the
report.json payload with digests recorded from an earlier, known-good build. A
refactor of the runner, prompting or metrics must leave every digest as it
is; a change that is meant to alter the artifacts re-records them and says so.

The payload digest leaves out `metadata` (timestamps) and the config's path
fields, which name this run's temporary directories.

The digests hold on AVX2-class x86-64, as the benchmark's reference digests
do: retrieval similarities come from a BLAS matrix-vector product, whose last
bit can differ on other CPUs.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from conftest import STANDARD_SEED
from vulnprompt.config import ExperimentConfig
from vulnprompt.llmclient import ParrotProvider, oracle_for_corpus
from vulnprompt.prompting import ShotOrder, Strategy
from vulnprompt.runner import StrictRunError, run
from vulnprompt.vecindex import save_index

ALL_STRATEGIES = (
    Strategy.ZERO_SHOT,
    Strategy.RANDOM_FEW_SHOT,
    Strategy.RETRIEVAL_FEW_SHOT,
    Strategy.RETRIEVAL_LABELING,
)
PATH_FIELDS = ("corpus_path", "output_dir", "index_path", "cache_dir")

PARROT_SIMILAR_FIRST = {
    "records": "88624f3aea0a28ccdb8216045ae24740707cc6d64c498595c070e5d62ee81051",
    "csv": "0a63c067723a6f55effd672676a624e4f62216e71a4e25ddc93e2566b3de30be",
    "payload": "7c71826ae0147e55c616caf5334cf21d1ec33ce90554cfd807c9797837da9f53",
}
PARROT_SIMILAR_LAST = {
    "records": "d1ac18adffa4b5e936b53762f5bfa8fe3ec61e3306943991c2629facb2859b00",
    "csv": "010c6552a23a606b38e87b0c4f872d483fddb078b8163278fb73c8244081d939",
    "payload": "4a535cd60828bcdf4acc486a34b01ca46048f76e95c1a1940f68f5e1947bce5f",
}
# A loaded index ranks exactly as the index it was saved from, and a cold
# cache changes nothing but the files it leaves behind.
GOLDEN = {
    "parrot-built-similar_first": PARROT_SIMILAR_FIRST,
    "parrot-loaded-similar_first": PARROT_SIMILAR_FIRST,
    "parrot-built-similar_last": PARROT_SIMILAR_LAST,
    "parrot-loaded-similar_last": PARROT_SIMILAR_LAST,
    "cache-cold": PARROT_SIMILAR_FIRST,
    "cache-warm": {
        "records": "cdf17605a1939020e7aaecf41dbe54b8ad41b211e596f076fee704201b67fb2c",
        "csv": "0a63c067723a6f55effd672676a624e4f62216e71a4e25ddc93e2566b3de30be",
        "payload": "1cc666df1e2341eba6cbc30eabd065a3ce4f079bb857bdc91eeb8749a8ebd64e",
    },
    "oracle": {
        "records": "895804fb5bce94d1563b8ee580688e7d5719ef902b4e55798d339c1b03f7d963",
        "csv": "e2091c611e11e1d7ac2e17bd2706da4a296eff98fd5be69faa798d478434712f",
        "payload": "61e876cdf0eb7ae896c353a9b4c8dd92922764255145780209ba5ce7d864d655",
    },
    "strict-checkpoint": "1ee39124574e427a1a949fd9b218ff4f654d62c70d40b09fc420b2218f3d8dc3",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def payload_digest(report_path) -> str:
    data = json.loads(report_path.read_text(encoding="utf-8"))
    del data["metadata"]
    for key in PATH_FIELDS:
        del data["config"][key]
    return sha256(json.dumps(data, sort_keys=True).encode("utf-8"))


def artifact_digests(out) -> dict:
    return {
        "records": sha256((out / "records.jsonl").read_bytes()),
        "csv": sha256((out / "report.csv").read_bytes()),
        "payload": payload_digest(out / "report.json"),
    }


def standard_config(corpus_path, out, **kw) -> ExperimentConfig:
    settings = dict(
        corpus_path=str(corpus_path),
        output_dir=str(out),
        strategies=ALL_STRATEGIES,
        seed=STANDARD_SEED,
    )
    settings.update(kw)
    return ExperimentConfig(**settings)


@pytest.mark.parametrize("shot_order", list(ShotOrder), ids=lambda o: o.value)
@pytest.mark.parametrize("index", ["built", "loaded"])
def test_parrot_sweep_digests(
    synthetic_corpus_path, synthetic_index, tmp_path, index, shot_order
):
    kw = {}
    if index == "loaded":
        kw["index_path"] = str(tmp_path / "index.jsonl")
        save_index(synthetic_index, kw["index_path"])
    out = tmp_path / "out"
    run(
        standard_config(synthetic_corpus_path, out, shot_order=shot_order, **kw),
        provider=ParrotProvider(),
    )
    assert artifact_digests(out) == GOLDEN[f"parrot-{index}-{shot_order.value}"]


def test_oracle_sweep_digests(synthetic_corpus_path, synthetic_corpus, tmp_path):
    out = tmp_path / "out"
    run(
        standard_config(synthetic_corpus_path, out),
        provider=oracle_for_corpus(synthetic_corpus),
    )
    assert artifact_digests(out) == GOLDEN["oracle"]


def test_cold_then_warm_cache_digests(synthetic_corpus_path, tmp_path):
    cache_dir = str(tmp_path / "cache")
    digests = {}
    for phase in ("cold", "warm"):
        out = tmp_path / phase
        run(
            standard_config(synthetic_corpus_path, out, cache_dir=cache_dir),
            provider=ParrotProvider(),
        )
        digests[phase] = artifact_digests(out)
    assert digests == {"cold": GOLDEN["cache-cold"], "warm": GOLDEN["cache-warm"]}


def test_strict_checkpoint_digest(synthetic_corpus_path, tmp_path):
    # The parrot cannot answer a prompt without shots, so the zero-shot cell,
    # run last, aborts the strict run after every other cell has finished.
    out = tmp_path / "out"
    config = standard_config(
        synthetic_corpus_path, out, strategies=ALL_STRATEGIES[::-1], strict=True
    )
    with pytest.raises(StrictRunError):
        run(config, provider=ParrotProvider())
    checkpoint = (out / "records.partial.jsonl").read_bytes()
    assert checkpoint.count(b"\n") == 26 * 11 * 3
    assert sha256(checkpoint) == GOLDEN["strict-checkpoint"]
