"""Every name a module of src/sfvem or a file of tests/ imports is used in
that file.

pyflakes, ruff and flake8 may not be installed, so this is their unused
import check (F401) on the ast: a name bound by an import must be read
somewhere in the module, or listed in its ``__all__``. Imports on a line
marked ``# noqa`` are skipped (they keep a name that another module
re-binds), and so is the package's ``__init__.py``, whose imports are its
public re-exports.
"""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "sfvem"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))


def unused_imports(source: str) -> list:
    """(line, name) of each imported name the module never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa" in lines[i - 1] for i in range(node.lineno, node.end_lineno + 1)):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_modules_found():
    assert {"geometry.py", "projectors.py", "element.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_test_files_found():
    assert {"oracles.py", "test_imports.py", "test_system.py"} <= {p.name for p in TESTS}


@pytest.mark.parametrize("path", TESTS, ids=lambda p: p.name)
def test_no_unused_imports_in_tests(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_checker_flags_unused_and_skips_noqa():
    source = ("from __future__ import annotations\n"
              "import numpy as np\n"
              "import os.path\n"
              "from dataclasses import dataclass, field\n"
              "from .geometry import ScaledFrame  # noqa: F401\n"
              "from .poly import (HarmonicBasis,\n"
              "                   harmonic_basis)\n"
              "__all__ = ['HarmonicBasis']\n"
              "x: dataclass = np.zeros(2)\n")
    assert unused_imports(source) == [(3, "os"), (4, "field"), (6, "harmonic_basis")]
