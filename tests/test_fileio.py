"""Atomic writes: a written file gets the mode open() would give it."""

from __future__ import annotations

import os

import pytest

from vulnprompt.fileio import atomic_write_text


@pytest.mark.parametrize("umask", [0o022, 0o077], ids=["022", "077"])
def test_an_atomic_write_follows_the_umask_as_open_does(tmp_path, umask):
    previous = os.umask(umask)
    try:
        with open(tmp_path / "plain.txt", "w", encoding="utf-8") as handle:
            handle.write("x")
        atomic_write_text(tmp_path / "atomic.txt", "x")
    finally:
        os.umask(previous)
    expected = (tmp_path / "plain.txt").stat().st_mode & 0o777
    assert expected == 0o666 & ~umask
    assert (tmp_path / "atomic.txt").stat().st_mode & 0o777 == expected
