"""Atomic file writes so interrupted runs never leave truncated artifacts,
and the check that a string can be written as UTF-8 at all."""

from __future__ import annotations

import os
import re
import secrets
from contextlib import contextmanager
from pathlib import Path

_SURROGATE = re.compile("[\ud800-\udfff]")


def is_utf8_text(text: str) -> bool:
    """Whether `text` encodes as UTF-8: it holds no lone surrogate, such as a
    JSON escape like \\ud800 decodes to, or a byte that is not UTF-8 read
    under errors="surrogateescape". An ASCII string needs no scan."""
    return text.isascii() or _SURROGATE.search(text) is None


@contextmanager
def atomic_open(path: str | Path):
    """Yield a binary handle on a same-directory temp file; os.replace it onto
    path when the block ends cleanly, and delete it when the block raises."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    # Mode 0o666 less the umask, as open() gives; mkstemp would give 0o600.
    tmp_name = target.parent / f".{target.name}.{secrets.token_hex(8)}.tmp"
    fd = os.open(tmp_name, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as handle:
            yield handle
        os.replace(tmp_name, target)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write text to path as UTF-8 via a same-directory temp file and os.replace."""
    with atomic_open(path) as handle:
        handle.write(text.encode("utf-8"))
