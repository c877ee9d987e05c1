"""CLI: subcommand round-trips and exit-code contract."""

from __future__ import annotations

import hashlib
import io
import json
import os
import sqlite3
import subprocess
import sys
from contextlib import closing
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml

import vulnprompt
from vulnprompt.cli import EXIT_DATA, EXIT_OK, EXIT_PROVIDER, EXIT_USAGE, main
from vulnprompt.corpus import Corpus, dump_jsonl, ingest
from vulnprompt.embedding import EmbeddingInput, EmbeddingVector, HashedBagOfTokensBackend
from vulnprompt.labels import CweLabel
from vulnprompt.llmclient import CACHE_FILENAME
from vulnprompt.metrics import rates_from_counts
from vulnprompt.prompting import Strategy
from vulnprompt.runner import build_index_from_corpus, load_records
from vulnprompt.vecindex import IndexEntry, build, load_index, save_index


@pytest.fixture()
def workdir(tmp_path):
    rc = main(["synth", "--seed", "7", "--n-per-label", "5", "--out", str(tmp_path / "corpus.jsonl")])
    assert rc == EXIT_OK
    return tmp_path


def write_config(tmp_path, **overrides):
    data = {
        "corpus_path": str(tmp_path / "corpus.jsonl"),
        "output_dir": str(tmp_path / "out"),
        "strategies": ["retrieval_few_shot", "retrieval_labeling"],
        "shot_counts": [1, 2],
        "seed": 0,
        "provider": {"type": "parrot"},
    }
    data.update(overrides)
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(data), encoding="utf-8")
    return path


def test_synth_then_ingest(workdir, capsys):
    rc = main(["ingest", "--input", str(workdir / "corpus.jsonl")])
    assert rc == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["train_size"] == 22
    assert payload["test_size"] == 4
    assert payload["stats"]["retained"] == 26


def test_ingest_report_file(workdir):
    report_path = workdir / "ingest.json"
    rc = main(
        ["ingest", "--input", str(workdir / "corpus.jsonl"), "--report", str(report_path)]
    )
    assert rc == EXIT_OK
    assert json.loads(report_path.read_text(encoding="utf-8"))["train_size"] == 22


def test_ingest_missing_file_is_data_error(tmp_path, capsys):
    rc = main(["ingest", "--input", str(tmp_path / "absent.jsonl")])
    assert rc == EXIT_DATA


def test_ingest_malformed_file_is_data_error(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("{broken\n", encoding="utf-8")
    rc = main(["ingest", "--input", str(bad)])
    assert rc == EXIT_DATA
    assert "line 1" in capsys.readouterr().err


def test_index_build(workdir, capsys):
    config_path = write_config(
        workdir, index_path=str(workdir / "index.jsonl"), embedding={"dimension": 64}
    )
    rc = main(["index", "build", "--config", str(config_path)])
    assert rc == EXIT_OK
    assert "22 train samples (dim 64)" in capsys.readouterr().out
    assert (workdir / "index.jsonl").exists()


@pytest.mark.parametrize("include_labels", [False, True], ids=["bare-code", "with-labels"])
def test_index_build_follows_the_config_label_setting(workdir, include_labels):
    index_path = workdir / "index.jsonl"
    config_path = write_config(
        workdir, index_path=str(index_path), include_labels_in_index=include_labels
    )
    assert main(["index", "build", "--config", str(config_path)]) == EXIT_OK
    corpus = ingest(workdir / "corpus.jsonl")
    backend = HashedBagOfTokensBackend(dimension=256)
    for labels, name in ((include_labels, "expected.jsonl"), (not include_labels, "other.jsonl")):
        save_index(build_index_from_corpus(corpus, backend, include_labels=labels), workdir / name)
    saved = index_path.read_bytes()
    assert saved == (workdir / "expected.jsonl").read_bytes()
    assert saved != (workdir / "other.jsonl").read_bytes()


def test_index_build_embeds_with_a_remote_backend(workdir, monkeypatch):
    hashed = HashedBagOfTokensBackend(dimension=8)
    posted = []

    class Response:
        status_code = 200

        def __init__(self, text):
            self._values = hashed.embed(EmbeddingInput(code=text)).values.tolist()

        def json(self):
            return {"embedding": self._values}

    def post(session, url, json=None, headers=None, timeout=None):
        posted.append((url, json["model"]))
        return Response(json["input"])

    monkeypatch.setattr("requests.Session.post", post)
    embedding = {
        "backend": "remote",
        "endpoint": "http://embeddings.invalid/v1",
        "model": "embed-small",
        "dimension": 8,
    }
    index_path = workdir / "index.jsonl"
    config_path = write_config(workdir, index_path=str(index_path), embedding=embedding)
    assert main(["index", "build", "--config", str(config_path)]) == EXIT_OK
    index = load_index(index_path)
    assert (len(index), index.dimension) == (22, 8)
    assert posted == [("http://embeddings.invalid/v1", "embed-small")] * 22


def test_index_build_without_index_path_exits_1(workdir, capsys):
    config_path = write_config(workdir)
    assert main(["index", "build", "--config", str(config_path)]) == EXIT_USAGE
    assert "sets no index_path" in capsys.readouterr().err


def test_run_and_reports(workdir, capsys):
    config_path = write_config(workdir)
    assert main(["run", "--config", str(config_path)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "report.csv" in out

    assert main(["report", "table", "--run", str(workdir / "out")]) == EXIT_OK
    table = capsys.readouterr().out
    assert table.splitlines()[0].startswith("strategy,k,subset_accuracy")

    assert main(["report", "curves", "--run", str(workdir / "out")]) == EXIT_OK
    curves = json.loads(capsys.readouterr().out)
    assert "micro_f1" in curves

    csv_out = workdir / "table.csv"
    assert (
        main(["report", "table", "--run", str(workdir / "out"), "--out", str(csv_out)])
        == EXIT_OK
    )
    assert csv_out.read_text(encoding="utf-8") == table


def test_run_with_prebuilt_index(workdir):
    config_path = write_config(workdir, index_path=str(workdir / "index.jsonl"))
    assert main(["index", "build", "--config", str(config_path)]) == EXIT_OK
    assert main(["run", "--config", str(config_path)]) == EXIT_OK


def read_index_file(path):
    """The header and matrix of an index file."""
    data = path.read_bytes()
    head, _, payload = data.partition(b"\n")
    return json.loads(head), np.load(io.BytesIO(payload))


def write_index_file(path, header, matrix):
    with open(path, "wb") as handle:
        handle.write(json.dumps(header).encode("utf-8") + b"\n")
        np.save(handle, matrix, allow_pickle=matrix.dtype == object)


def set_vector_head(header, matrix, value):
    matrix[0, 0] = value
    return header, matrix


def set_vectors(header, matrix, value):
    return header, matrix.astype(value)


def set_labels(header, matrix, value):
    header["labels"][0] = value
    return header, matrix


@pytest.mark.parametrize(
    ("corrupt", "value", "message"),
    [
        (set_vector_head, float("nan"), "has norm nan, not 1.0"),
        (set_vectors, str, "matrix is <U"),
        (set_labels, ["CWE-999"], "labels: not an in-scope CWE label: 'CWE-999'"),
        (set_labels, "CWE-119", "labels must hold one non-empty list of label codes per id"),
    ],
    ids=["nan", "string", "unknown-label", "labels-not-a-list"],
)
def test_run_with_corrupt_index_value_exits_3(workdir, capsys, corrupt, value, message):
    index_path = workdir / "index.bin"
    config_path = write_config(workdir, index_path=str(index_path))
    assert main(["index", "build", "--config", str(config_path)]) == EXIT_OK
    write_index_file(index_path, *corrupt(*read_index_file(index_path), value))
    capsys.readouterr()
    assert main(["run", "--config", str(config_path)]) == EXIT_DATA
    assert message in capsys.readouterr().err


def test_run_with_index_labels_differing_from_corpus_exits_3(workdir, capsys):
    index_path = workdir / "index.bin"
    config_path = write_config(workdir, index_path=str(index_path))
    assert main(["index", "build", "--config", str(config_path)]) == EXIT_OK
    header, matrix = read_index_file(index_path)
    header["labels"][0] = ["CWE-469"] if header["labels"][0] != ["CWE-469"] else ["CWE-476"]
    write_index_file(index_path, header, matrix)
    capsys.readouterr()
    assert main(["run", "--config", str(config_path)]) == EXIT_DATA
    assert f"index {index_path} does not match this run in labels;" in capsys.readouterr().err


def edit_train_code(workdir, index_path):
    """Index the corpus, then edit every train snippet after the fact."""
    corpus = ingest(workdir / "corpus.jsonl")
    save_index(build_index_from_corpus(corpus, HashedBagOfTokensBackend(256)), index_path)
    train = tuple(replace(s, code=s.code + "\n/* edited */") for s in corpus.train)
    dump_jsonl(replace(corpus, train=train), workdir / "corpus.jsonl")


def index_test_samples_too(workdir, index_path):
    corpus = ingest(workdir / "corpus.jsonl")
    leaky = replace(corpus, train=corpus.samples, test=())
    save_index(build_index_from_corpus(leaky, HashedBagOfTokensBackend(256)), index_path)


def index_with(**settings):
    def prepare(workdir, index_path):
        corpus = ingest(workdir / "corpus.jsonl")
        backend = HashedBagOfTokensBackend(settings.get("dimension", 256))
        labels = settings.get("include_labels", True)
        save_index(build_index_from_corpus(corpus, backend, labels), index_path)

    return prepare


def old_jsonl_index(workdir, index_path):
    corpus = ingest(workdir / "corpus.jsonl")
    index = build_index_from_corpus(corpus, HashedBagOfTokensBackend(256))
    lines = [
        json.dumps({"id": i, "vector": row, "labels": ["CWE-119"]}, sort_keys=True)
        for i, row in zip(index.ids, index.matrix.tolist())
    ]
    index_path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def unstamped_index(workdir, index_path):
    corpus = ingest(workdir / "corpus.jsonl")
    index = build_index_from_corpus(corpus, HashedBagOfTokensBackend(256))
    entries = [
        IndexEntry(sample_id=i, vector=EmbeddingVector(values=row), truth=truth)
        for i, row, truth in zip(index.ids, index.matrix, index.truths)
    ]
    save_index(build(entries), index_path)


def truncated_payload(workdir, index_path):
    index_with()(workdir, index_path)
    index_path.write_bytes(index_path.read_bytes()[:-100])


def object_payload(workdir, index_path):
    index_with()(workdir, index_path)
    header, matrix = read_index_file(index_path)
    write_index_file(index_path, header, matrix.astype(object))


@pytest.mark.parametrize(
    ("prepare", "message"),
    [
        (index_with(include_labels=False), "does not match this run in include_labels;"),
        (edit_train_code, "does not match this run in train_sha256;"),
        (index_test_samples_too, "does not match this run in ids, labels, train_sha256;"),
        (index_with(dimension=64), "does not match this run in dimension;"),
        (old_jsonl_index, "is not a vulnprompt-index/1 file; rebuild it with `vulnprompt index"),
        (unstamped_index, "has no built_from stamp; rebuild it with `vulnprompt index build`"),
        (truncated_payload, "unreadable matrix payload"),
        (object_payload, "unreadable matrix payload: Object arrays cannot be loaded"),
    ],
    ids=[
        "labels-off",
        "train-code-edited",
        "test-samples-indexed",
        "other-dimension",
        "old-jsonl",
        "unstamped",
        "truncated-payload",
        "object-payload",
    ],
)
def test_run_with_a_mismatched_index_exits_3_naming_the_key(workdir, prepare, message):
    index_path = workdir / "index.bin"
    prepare(workdir, index_path)
    config_path = write_config(
        workdir, index_path=str(index_path), strategies=["retrieval_labeling"]
    )
    proc = run_cli("run", "--config", str(config_path))
    assert proc.returncode == EXIT_DATA, proc.stderr
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr


def test_run_unknown_config_key_is_usage_error(workdir, capsys):
    config_path = write_config(workdir, typo_key=1)
    rc = main(["run", "--config", str(config_path)])
    assert rc == EXIT_USAGE
    assert "typo_key" in capsys.readouterr().err


def test_run_strict_provider_failure_exit_code(workdir, capsys):
    config_path = write_config(
        workdir, strategies=["zero_shot"], provider={"type": "parrot"}
    )
    rc = main(["run", "--config", str(config_path), "--strict"])
    assert rc == EXIT_PROVIDER
    err = capsys.readouterr().err
    assert "checkpoint" in err


def test_run_nonstrict_provider_failure_completes(workdir):
    config_path = write_config(
        workdir, strategies=["zero_shot"], provider={"type": "parrot"}
    )
    assert main(["run", "--config", str(config_path)]) == EXIT_OK


def test_output_dir_override(workdir):
    config_path = write_config(workdir)
    override = workdir / "elsewhere"
    assert (
        main(["run", "--config", str(config_path), "--output-dir", str(override)])
        == EXIT_OK
    )
    assert (override / "report.json").exists()


def test_cache_stats_and_clear(workdir, capsys):
    config_path = write_config(workdir, cache_dir=str(workdir / "cache"))
    assert main(["run", "--config", str(config_path)]) == EXIT_OK
    capsys.readouterr()

    assert main(["cache", "stats", "--cache-dir", str(workdir / "cache")]) == EXIT_OK
    stats = json.loads(capsys.readouterr().out)
    assert stats["entries"] > 0

    assert main(["cache", "clear", "--cache-dir", str(workdir / "cache")]) == EXIT_OK
    capsys.readouterr()
    assert main(["cache", "stats", "--cache-dir", str(workdir / "cache")]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["entries"] == 0


def test_cache_root_that_is_a_file_exits_3(workdir, capsys):
    cache_root = workdir / "cache"
    cache_root.write_text("not a directory", encoding="utf-8")
    config_path = write_config(workdir, cache_dir=str(cache_root))
    assert main(["run", "--config", str(config_path)]) == EXIT_DATA
    assert "not a directory" in capsys.readouterr().err


def run_cli(*args):
    src = str(Path(vulnprompt.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-m", "vulnprompt.cli", *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        check=False,
    )


@pytest.mark.parametrize(
    "damage",
    [lambda data: data[: len(data) // 2], lambda data: b"not a database " * 400],
    ids=["truncated", "not-sqlite"],
)
def test_run_with_damaged_cache_database_exits_3(workdir, damage):
    cache_dir = workdir / "cache"
    config_path = write_config(workdir, cache_dir=str(cache_dir))
    assert main(["run", "--config", str(config_path)]) == EXIT_OK
    database = cache_dir / CACHE_FILENAME
    database.write_bytes(damage(database.read_bytes()))

    proc = run_cli("run", "--config", str(config_path))
    assert proc.returncode == EXIT_DATA
    assert f"unusable cache database {database}" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_run_with_old_layout_cache_dir_exits_3(workdir, capsys):
    cache_dir = workdir / "cache"
    cache_dir.mkdir()
    (cache_dir / f"{'0' * 64}.json").write_text('{"response": "CWE-119"}', encoding="utf-8")
    config_path = write_config(workdir, cache_dir=str(cache_dir))
    assert main(["run", "--config", str(config_path)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert f"cache root {cache_dir} holds *.json entries" in err
    assert "use a new cache_dir or delete those files" in err
    assert not (cache_dir / CACHE_FILENAME).exists()


def test_run_with_a_directory_as_cache_database_exits_3(workdir, capsys):
    database = workdir / "cache" / CACHE_FILENAME
    database.mkdir(parents=True)
    config_path = write_config(workdir, cache_dir=str(database.parent))
    assert main(["run", "--config", str(config_path)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert f"unusable cache database {database}: unable to open database file" in err


def test_run_with_an_index_without_a_built_from_stamp_exits_3(workdir, capsys):
    index_path = workdir / "index.bin"
    unstamped_index(workdir, index_path)
    config_path = write_config(
        workdir, index_path=str(index_path), strategies=["retrieval_labeling"]
    )
    assert main(["run", "--config", str(config_path)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert f"index {index_path} has no built_from stamp; rebuild it with" in err


def test_rerun_with_cache_dir_equal_to_output_dir_replays_from_the_cache(workdir, capsys):
    # The first run leaves report.json in the cache root: a *.json file that is
    # not an entry of the old one-file-per-key layout.
    out = workdir / "out"
    config_path = write_config(workdir, cache_dir=str(out))
    assert main(["run", "--config", str(config_path)]) == EXIT_OK
    assert "provider calls: 0" not in capsys.readouterr().out
    assert main(["run", "--config", str(config_path)]) == EXIT_OK
    assert "provider calls: 0" in capsys.readouterr().out.splitlines()


def test_cache_keyed_by_an_earlier_format_exits_3(workdir):
    # A cache file written before keys hashed the prompt digest: the table,
    # one row under the old JSON-of-the-request key, and no user_version stamp.
    cache_dir = workdir / "cache"
    cache_dir.mkdir()
    database = cache_dir / CACHE_FILENAME
    old_key = hashlib.sha256(
        json.dumps(
            {"max_output_tokens": 128, "model_id": "m", "prompt": "p", "temperature": 0.0},
            sort_keys=True,
        ).encode("utf-8")
    ).hexdigest()
    with closing(sqlite3.connect(database)) as raw, raw:
        raw.execute("CREATE TABLE responses (key TEXT PRIMARY KEY, response TEXT) WITHOUT ROWID")
        raw.execute("INSERT INTO responses VALUES (?, ?)", (old_key, "CWE-119"))
    before = database.read_bytes()
    config_path = write_config(workdir, cache_dir=str(cache_dir))

    for args in (("run", "--config", str(config_path)), ("cache", "stats", "--cache-dir", str(cache_dir))):
        proc = run_cli(*args)
        assert proc.returncode == EXIT_DATA, args
        assert f"cache database {database} holds responses under another key format" in proc.stderr
        assert "use a new cache_dir or delete the file" in proc.stderr
        assert "Traceback" not in proc.stderr
    assert database.read_bytes() == before
    assert not (workdir / "out" / "records.jsonl").exists()


def test_malformed_config_section_exits_1_without_traceback(workdir):
    config_path = write_config(workdir, embedding=None)
    proc = run_cli("run", "--config", str(config_path))
    assert proc.returncode == EXIT_USAGE
    assert "embedding must be a mapping" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_a_config_key_given_twice_exits_1(workdir, capsys):
    config_path = write_config(workdir)
    config_path.write_text(config_path.read_text(encoding="utf-8") + "seed: 2\n", encoding="utf-8")
    assert main(["run", "--config", str(config_path)]) == EXIT_USAGE
    assert "found duplicate key 'seed'" in capsys.readouterr().err
    assert not (workdir / "out").exists()


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"corpus_path": 5}, "corpus_path must be str, got int"),
        ({"include_labels_in_index": "false"}, "include_labels_in_index must be bool, got str"),
        ({"provider": {"type": "parrot", "temperature": -1}}, "temperature must be >= 0, got -1"),
        (
            {"provider": {"type": "parrot", "temperature": float("nan")}},
            "temperature must be >= 0, got nan",
        ),
        (
            {"provider": {"type": "parrot", "timeout_s": 0}},
            "timeout_s must be a finite number > 0, got 0",
        ),
        (
            {"provider": {"type": "parrot", "timeout_s": -1}},
            "timeout_s must be a finite number > 0, got -1",
        ),
    ],
    ids=[
        "int-corpus-path",
        "str-bool",
        "negative-temperature",
        "nan-temperature",
        "zero-timeout",
        "negative-timeout",
    ],
)
def test_mistyped_config_value_exits_1_without_traceback(workdir, overrides, message):
    config_path = write_config(workdir, **overrides)
    proc = run_cli("run", "--config", str(config_path))
    assert proc.returncode == EXIT_USAGE
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "provider, message",
    [
        ({"type": "remote"}, "remote provider requires an endpoint"),
        ({"type": "fixed"}, "fixed provider requires fixed_text"),
    ],
    ids=["remote-without-endpoint", "fixed-without-text"],
)
def test_provider_missing_its_setting_exits_1(workdir, provider, message):
    # Checked before the index is read: this index_path would exit 3.
    config_path = write_config(
        workdir, provider=provider, index_path=str(workdir / "no-such-index.bin")
    )
    proc = run_cli("run", "--config", str(config_path))
    assert proc.returncode == EXIT_USAGE
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr


def test_retrieval_labeling_run_leaves_an_old_format_cache_alone(workdir):
    cache_dir = workdir / "cache"
    cache_dir.mkdir()
    database = cache_dir / CACHE_FILENAME
    with closing(sqlite3.connect(database)) as raw, raw:
        raw.execute("CREATE TABLE responses (key TEXT PRIMARY KEY, response TEXT) WITHOUT ROWID")
    before = database.read_bytes()
    config_path = write_config(
        workdir, strategies=["retrieval_labeling"], cache_dir=str(cache_dir)
    )
    assert main(["run", "--config", str(config_path)]) == EXIT_OK
    assert database.read_bytes() == before


@pytest.mark.parametrize("command", ["ingest", "run"])
def test_a_corpus_that_is_not_utf8_exits_3_naming_file_and_line(workdir, command):
    lines = (workdir / "corpus.jsonl").read_bytes().splitlines(keepends=True)
    lines[2] = lines[2].replace(b'"code": "', b'"code": "\xff', 1)
    corpus_path = workdir / "latin1.jsonl"
    corpus_path.write_bytes(b"".join(lines))
    if command == "ingest":
        proc = run_cli("ingest", "--input", str(corpus_path))
    else:
        proc = run_cli("run", "--config", str(write_config(workdir, corpus_path=str(corpus_path))))
    assert proc.returncode == EXIT_DATA
    assert f"{corpus_path}: line 3: not UTF-8 text" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("command", ["ingest", "run"])
@pytest.mark.parametrize("key", ["id", "code"])
def test_a_corpus_string_with_an_escaped_lone_surrogate_exits_3(workdir, command, key):
    lines = (workdir / "corpus.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
    lines[2] = lines[2].replace(f'"{key}": "', f'"{key}": "\\ud800', 1)
    corpus_path = workdir / "surrogate.jsonl"
    corpus_path.write_text("".join(lines), encoding="utf-8")
    if command == "ingest":
        proc = run_cli("ingest", "--input", str(corpus_path))
    else:
        proc = run_cli("run", "--config", str(write_config(workdir, corpus_path=str(corpus_path))))
    assert proc.returncode == EXIT_DATA
    assert f"{corpus_path}: line 3: {key} is not UTF-8 text" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_strict_run_on_an_answer_with_a_lone_surrogate_exits_2_with_a_checkpoint(
    workdir, monkeypatch, capsys
):
    class Response:
        status_code = 200

        def json(self):
            return {"text": "CWE-119 \ud800"}

    monkeypatch.setattr("requests.Session.post", lambda *args, **kwargs: Response())
    config_path = write_config(
        workdir,
        provider={"type": "remote", "endpoint": "http://llm.invalid/v1", "max_in_flight": 1},
        cache_dir=str(workdir / "cache"),
    )
    assert main(["run", "--config", str(config_path), "--strict"]) == EXIT_PROVIDER
    err = capsys.readouterr().err
    assert "endpoint answer is not UTF-8 text: it holds a lone surrogate" in err
    assert f"checkpoint: {workdir / 'out' / 'records.partial.jsonl'}" in err


def test_a_fixed_text_with_a_lone_surrogate_exits_1_before_any_call(workdir):
    config_path = write_config(
        workdir,
        provider={"type": "fixed", "fixed_text": "CWE-119 \ud800"},
        cache_dir=str(workdir / "cache"),
        strategies=["zero_shot"],
    )
    proc = run_cli("run", "--config", str(config_path))
    assert proc.returncode == EXIT_USAGE
    assert "fixed_text is not UTF-8 text: it holds a lone surrogate" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (workdir / "cache").exists()
    assert not (workdir / "out").exists()


def test_a_config_that_is_not_utf8_exits_1_naming_the_file(workdir):
    config_path = write_config(workdir)
    config_path.write_bytes(config_path.read_bytes() + b"# caf\xe9\n")
    proc = run_cli("run", "--config", str(config_path))
    assert proc.returncode == EXIT_USAGE
    assert f"cannot read config {config_path}: 'utf-8' codec can't decode" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("command", ["table", "curves"])
@pytest.mark.parametrize(
    "text, message",
    [
        (b"not json", "{path}: not a run report: JSONDecodeError"),
        (
            b'{"x": 1}',
            "{path}: not a run report: TypeError: "
            "missing key(s): cells, config, provider_calls, shot_order, template_id",
        ),
        (b"[1]", "{path}: not a run report: TypeError"),
        (b"\xff\xfe", "{path}: 'utf-8' codec can't decode byte 0xff"),
        (None, "Is a directory: '{path}'"),
    ],
    ids=["not-json", "missing-field", "not-an-object", "not-utf-8", "directory"],
)
def test_report_from_a_malformed_report_exits_3(workdir, capsys, command, text, message):
    """`text` None puts a directory where report.json belongs."""
    report_path = workdir / "report.json"
    if text is None:
        report_path.mkdir()
    else:
        report_path.write_bytes(text)
    assert main(["report", command, "--run", str(workdir)]) == EXIT_DATA
    assert message.format(path=report_path) in capsys.readouterr().err


@pytest.fixture(scope="module")
def report_json(tmp_path_factory):
    """The report.json of a finished two-strategy, two-shot-count run."""
    tmp_path = tmp_path_factory.mktemp("report")
    assert main(["synth", "--n-per-label", "5", "--out", str(tmp_path / "corpus.jsonl")]) == EXIT_OK
    assert main(["run", "--config", str(write_config(tmp_path))]) == EXIT_OK
    return (tmp_path / "out" / "report.json").read_text(encoding="utf-8")


METRIC = ("cells", 0, "metrics", "micro_f1")


@pytest.mark.parametrize("command", ["table", "curves"])
@pytest.mark.parametrize(
    "where, value, message",
    [
        (METRIC, "0.5", "cells[0].metrics.micro_f1 must be float, got str"),
        (METRIC, None, "cells[0].metrics.micro_f1 must be float, got NoneType"),
        (("cells", 1, "k"), "1", "cells[1].k must be int, got str"),
        (("cells", 2, "failures"), "x", "cells[2].failures must be int, got str"),
        (("provider_calls",), "3", "provider_calls must be int, got str"),
        (("cells",), None, "cells must be a list, got NoneType"),
        (("metadata",), [], "metadata must be dict, got list"),
        (("extra",), 1, "unknown key(s): extra"),
    ],
    ids=[
        "str-metric", "null-metric", "str-k", "str-failures", "str-provider-calls",
        "null-cells", "list-metadata", "unknown-key",
    ],
)
def test_report_with_a_mistyped_field_exits_3_naming_it(
    tmp_path, capsys, report_json, command, where, value, message
):
    data = json.loads(report_json)
    *parents, last = where
    target = data
    for step in parents:
        target = target[step]
    target[last] = value
    report_path = tmp_path / "report.json"
    report_path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["report", command, "--run", str(tmp_path)]) == EXIT_DATA
    assert f"{report_path}: not a run report: TypeError: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["table", "curves"])
@pytest.mark.parametrize(
    "changes, message",
    [
        (
            {"micro_f1": 5, "k": -3, "failures": -1},
            "MetricsError: cells[0].metrics: micro_f1 must be in [0, 1], got 5",
        ),
        ({"k": -3}, "ValueError: cells[0]: k must be >= 0, got -3"),
        ({"failures": -1}, "ValueError: cells[0]: failures must be in [0, n_instances], got -1"),
    ],
    ids=["f1-k-failures", "negative-k", "negative-failures"],
)
def test_report_with_an_out_of_range_value_exits_3_naming_it(
    tmp_path, capsys, report_json, command, changes, message
):
    data = json.loads(report_json)
    cell = data["cells"][0]
    for key, value in changes.items():
        (cell["metrics"] if key in cell["metrics"] else cell)[key] = value
    report_path = tmp_path / "report.json"
    report_path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["report", command, "--run", str(tmp_path)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert f"{report_path}: not a run report: {message}" in err
    assert "Traceback" not in err


def seven_labels(cell):
    metrics = cell["metrics"]
    metrics["n_labels"] = 7
    metrics["tn"] += 3 * metrics["n_instances"]  # the counts still sum to every slot


@pytest.mark.parametrize("command", ["table", "curves"])
@pytest.mark.parametrize(
    "index, damage, message",
    [
        (1, seven_labels, "MetricsError: cells[1].metrics: n_labels must be 4, got 7"),
        (
            2,
            lambda cell: cell.update(k=0),
            "ValueError: cells[2]: k must be 0 exactly for zero_shot, "
            "got k=0 for retrieval_labeling",
        ),
        (
            0,
            lambda cell: cell.update(strategy="zero_shot"),
            "ValueError: cells[0]: k must be 0 exactly for zero_shot, got k=1 for zero_shot",
        ),
        (
            3,
            lambda cell: cell["metrics"].update(micro_f1=5),
            "MetricsError: cells[3].metrics: micro_f1 must be in [0, 1], got 5",
        ),
    ],
    ids=["seven-labels", "k0-retrieval-labeling", "k1-zero-shot", "f1-in-cell-3"],
)
def test_report_with_an_inconsistent_cell_exits_3_naming_it(
    tmp_path, capsys, report_json, command, index, damage, message
):
    data = json.loads(report_json)
    damage(data["cells"][index])
    report_path = tmp_path / "report.json"
    report_path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["report", command, "--run", str(tmp_path)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert f"{report_path}: not a run report: {message}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["table", "curves"])
@pytest.mark.parametrize(
    "index, rates, message",
    [
        (0, {}, None),
        (
            0,
            {"hamming_accuracy": 0.1, "micro_precision": 0.9},
            "cells[0].metrics: hamming_accuracy is 0.1, but tp 2, fp 8, fn 6, tn 16 give 0.5625",
        ),
        (
            3,
            {"micro_precision": 0.9},
            "cells[3].metrics: micro_precision is 0.9, but tp 2, fp 8, fn 6, tn 16 give 0.2",
        ),
    ],
    ids=["consistent", "hamming-and-precision", "precision-in-cell-3"],
)
def test_report_whose_rates_contradict_their_counts_exits_3_naming_the_cell(
    tmp_path, capsys, report_json, command, index, rates, message
):
    """Cell `index` is recounted as tp 2, fp 8, fn 6, tn 16 over 8 instances,
    with the rates those counts give except for `rates`."""
    data = json.loads(report_json)
    data["cells"][index]["metrics"].update(
        n_instances=8, tp=2, fp=8, fn=6, tn=16, **{**rates_from_counts(2, 8, 6, 16), **rates}
    )
    report_path = tmp_path / "report.json"
    report_path.write_text(json.dumps(data), encoding="utf-8")
    code = main(["report", command, "--run", str(tmp_path)])
    err = capsys.readouterr().err
    if message is None:
        assert code == EXIT_OK
    else:
        assert code == EXIT_DATA
        assert f"{report_path}: not a run report: MetricsError: {message}" in err
        assert "Traceback" not in err


@pytest.mark.parametrize("command", ["stats", "clear"])
def test_cache_command_on_a_path_with_no_cache_exits_3_creating_nothing(tmp_path, command):
    cache_dir = tmp_path / "typo_dir"
    proc = run_cli("cache", command, "--cache-dir", str(cache_dir))
    assert proc.returncode == EXIT_DATA
    assert f"no response cache at {cache_dir / CACHE_FILENAME}" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not cache_dir.exists()


@pytest.mark.parametrize(
    "setting, message",
    [
        ("corpus_path", "corpus path {} is a directory"),
        ("index_path", "index path {} is a directory"),
    ],
    ids=["corpus_path", "index_path"],
)
def test_run_with_a_directory_for_a_file_exits_3(workdir, capsys, setting, message):
    folder = workdir / "folder"
    folder.mkdir()
    config_path = write_config(workdir, **{setting: str(folder)})
    assert main(["run", "--config", str(config_path)]) == EXIT_DATA
    assert message.format(folder) in capsys.readouterr().err


def test_run_with_a_file_for_output_dir_exits_3(workdir, capsys):
    target = workdir / "out"
    target.write_text("not a directory", encoding="utf-8")
    config_path = write_config(workdir, output_dir=str(target))
    assert main(["run", "--config", str(config_path)]) == EXIT_DATA
    assert f"output_dir {target} is not a usable directory" in capsys.readouterr().err
    assert target.read_text(encoding="utf-8") == "not a directory"


@pytest.mark.parametrize("value", ["0", "-2"])
def test_synth_with_fewer_than_one_sample_per_label_is_a_usage_error(tmp_path, value):
    out = tmp_path / "corpus.jsonl"
    proc = run_cli("synth", "--n-per-label", value, "--out", str(out))
    assert proc.returncode == EXIT_USAGE
    errors = [line for line in proc.stderr.splitlines() if "error:" in line]
    assert errors == [f"vulnprompt synth: error: argument --n-per-label: must be >= 1, got {value}"]
    assert "Traceback" not in proc.stderr
    assert not out.exists()


def test_run_with_a_fixed_provider_predicts_its_text_for_every_prompt(workdir):
    strategies = ["zero_shot", "random_few_shot", "retrieval_few_shot", "retrieval_labeling"]
    config_path = write_config(
        workdir, strategies=strategies, provider={"type": "fixed", "fixed_text": "CWE-476"}
    )
    assert main(["run", "--config", str(config_path)]) == EXIT_OK
    records = load_records(workdir / "out" / "records.jsonl")
    prompted = [r for r in records if r.strategy is not Strategy.RETRIEVAL_LABELING]
    assert {r.strategy.value for r in prompted} == set(strategies[:3])
    assert all(r.pred == frozenset({CweLabel.CWE_476}) for r in prompted)


@pytest.mark.parametrize(
    ("keep", "strategies", "message"),
    [
        (
            lambda c: Corpus(train=c.train, test=()),
            ["retrieval_few_shot"],
            "corpus has no test samples",
        ),
        (
            lambda c: Corpus(train=(), test=c.test),
            ["retrieval_labeling"],
            "cannot build an index from an empty train split",
        ),
    ],
    ids=["train-only", "test-only"],
)
def test_run_over_a_corpus_with_one_split_exits_3(workdir, capsys, keep, strategies, message):
    dump_jsonl(keep(ingest(workdir / "corpus.jsonl")), workdir / "corpus.jsonl")
    config_path = write_config(workdir, strategies=strategies)
    assert main(["run", "--config", str(config_path)]) == EXIT_DATA
    assert f"error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["- a\n- b\n", ""], ids=["list", "empty"])
def test_a_config_whose_root_is_not_a_mapping_exits_1(tmp_path, capsys, text):
    config_path = tmp_path / "config.yaml"
    config_path.write_text(text, encoding="utf-8")
    assert main(["run", "--config", str(config_path)]) == EXIT_USAGE
    assert "config root must be a mapping" in capsys.readouterr().err


QUICK_START = Path(__file__).resolve().parents[1] / "scripts" / "run_synthetic_experiment.py"


@pytest.mark.parametrize(
    ("args", "code", "message"),
    [
        (["--n-per-label", "0"], EXIT_USAGE, "error: argument --n-per-label: must be >= 1, got 0"),
        (["--shot-counts", "0"], EXIT_USAGE, "error: shot counts must be integers >= 1, got 0"),
        (["--n-per-label", "1"], EXIT_DATA, "error: corpus has no test samples"),
        (["--n-per-label", "4"], EXIT_DATA, "error: corpus has no test samples"),
    ],
    ids=["no-samples", "zero-shots", "one-per-label", "four-per-label"],
)
def test_the_quick_start_script_fails_as_the_cli_does(tmp_path, args, code, message):
    src = str(Path(vulnprompt.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, str(QUICK_START), *args, "--out", str(tmp_path / "out")],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        check=False,
    )
    assert proc.returncode == code
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr


def test_usage_errors_exit_1(capsys):
    assert main(["no-such-command"]) == EXIT_USAGE
    assert main(["ingest"]) == EXIT_USAGE
    assert main([]) == EXIT_USAGE


def test_help_exits_0(capsys):
    assert main(["--help"]) == EXIT_OK
    assert "vulnprompt" in capsys.readouterr().out
