"""CLI: subcommand round-trips and exit-code contract."""

from __future__ import annotations

import json

import pytest
import yaml

from vulnprompt.cli import EXIT_DATA, EXIT_OK, EXIT_PROVIDER, EXIT_USAGE, main


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
    rc = main(
        [
            "index",
            "build",
            "--corpus",
            str(workdir / "corpus.jsonl"),
            "--out",
            str(workdir / "index.jsonl"),
            "--dimension",
            "64",
        ]
    )
    assert rc == EXIT_OK
    assert "22 train samples" in capsys.readouterr().out
    assert (workdir / "index.jsonl").exists()


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
    assert (
        main(
            [
                "index",
                "build",
                "--corpus",
                str(workdir / "corpus.jsonl"),
                "--out",
                str(workdir / "index.jsonl"),
            ]
        )
        == EXIT_OK
    )
    config_path = write_config(workdir, index_path=str(workdir / "index.jsonl"))
    assert main(["run", "--config", str(config_path)]) == EXIT_OK


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


def test_usage_errors_exit_1(capsys):
    assert main(["no-such-command"]) == EXIT_USAGE
    assert main(["ingest"]) == EXIT_USAGE
    assert main([]) == EXIT_USAGE


def test_help_exits_0(capsys):
    assert main(["--help"]) == EXIT_OK
    assert "vulnprompt" in capsys.readouterr().out
