"""Package surface: every exported name resolves."""

from __future__ import annotations

import vulnprompt


def test_all_names_resolve():
    missing = [name for name in vulnprompt.__all__ if not hasattr(vulnprompt, name)]
    assert missing == []
