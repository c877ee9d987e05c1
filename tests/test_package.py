"""Package surface: each module imports on its own, loading only what it uses."""

from __future__ import annotations

import ast
import importlib.util
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE_DIR = importlib.util.find_spec("vulnprompt").submodule_search_locations[0]
MODULES = sorted(info.name for info in pkgutil.iter_modules([PACKAGE_DIR]))

# Modules that stand on the label vocabulary alone need no numpy.
NUMPY_FREE = {"corpus", "labeling", "labels", "metrics"}


def test_the_package_init_holds_only_its_docstring():
    tree = ast.parse((Path(PACKAGE_DIR) / "__init__.py").read_text(encoding="utf-8"))
    assert len(tree.body) == 1
    assert ast.get_docstring(tree)
    assert NUMPY_FREE <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_each_module_imports_first_in_a_fresh_interpreter(name):
    """An import cycle surfaces only when a module is the first one imported."""
    probe = f"import sys, vulnprompt.{name}; print('numpy' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(Path(PACKAGE_DIR).parent)},
        check=False,
    )
    assert proc.returncode == 0, proc.stderr
    if name in NUMPY_FREE:
        assert proc.stdout.strip() == "False"
