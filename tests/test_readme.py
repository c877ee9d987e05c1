"""README: the documented CLI sequence and config.yaml run as written.

The test reads README.md at run time, so a CLI or config change that leaves
the quick start stale fails here rather than in a user's shell.
"""

from __future__ import annotations

import re
import shlex
from pathlib import Path

from vulnprompt.cli import EXIT_OK, main

README = Path(__file__).resolve().parents[1] / "README.md"


def code_blocks(language: str) -> list:
    text = README.read_text(encoding="utf-8")
    return re.findall(rf"^```{language}\n(.*?)^```", text, flags=re.M | re.S)


def test_quick_start_cli_sequence_runs_verbatim(tmp_path, monkeypatch, capsys):
    (commands,) = [
        block
        for block in code_blocks("sh")
        if all(line.startswith("vulnprompt ") for line in block.splitlines())
    ]
    (config,) = [block for block in code_blocks("yaml") if "corpus_path:" in block]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "config.yaml").write_text(config, encoding="utf-8")
    for line in commands.splitlines():
        assert main(shlex.split(line)[1:]) == EXIT_OK, line
    assert (tmp_path / "index.bin").is_file()
    assert (tmp_path / "runs" / "demo" / "report.json").is_file()
    assert (tmp_path / "curves.json").is_file()
