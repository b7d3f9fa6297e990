"""Every name a module of src/sfvem or a file of tests/ imports is used in
that file, every private helper a module of src/sfvem defines is used in
that module, and no module of src/sfvem uses another's private names.

pyflakes, ruff and flake8 may not be installed, so this is their unused
import check (F401) on the ast: a name bound by an import must be read
somewhere in the module, or listed in its ``__all__``. Imports on a line
marked ``# noqa`` are skipped (they keep a name that another module
re-binds), and so is the package's ``__init__.py``, whose imports are its
public re-exports. The dead-helper check is the same on the ast for the
module-level definitions whose name starts with one underscore: a function,
class or assignment that nothing in its own module reads is left over.

A name that a module of src/sfvem imports on a ``# noqa: F401`` line and
never reads is kept only for the benchmark's tracer, which re-binds it by
that module's name: it must be a (module, attribute) entry of
``perfbench/tracing.TARGETS``, read here from that file's ast, so that the
import goes when the tracer stops re-binding the name.

A private name (one leading underscore) belongs to the module or class
that defines it: no module of src/sfvem imports another module's _name or
uses an attribute obj._attr of anything but self or cls.

Rule points meet data in one module: apart from the modules that define
them, only element references polygon_rules, evaluate_polys and
CHUNK_BYTES, as a name, an attribute or an imported name.

Every file src/sfvem writes ends its lines in "\n" on every platform: each
text-mode ``open`` for writing passes ``newline="\n"``.
"""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "sfvem"
TRACING = ROOT / "perfbench" / "tracing.py"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))


def unused_imports(source: str, noqa: bool = False) -> list:
    """(line, name) of each imported name the module never reads, of the
    imports on lines without ``# noqa``, or with ``# noqa: F401`` if noqa."""
    tree = ast.parse(source)
    lines = source.splitlines()
    mark = "# noqa: F401" if noqa else "# noqa"
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        marked = any(mark in lines[i - 1] for i in range(node.lineno, node.end_lineno + 1))
        if marked != noqa:
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


def unused_private_names(source: str) -> list:
    """(line, name) of each module-level _name (a function, class or
    assigned name with one leading underscore) the module never reads;
    definitions on a line marked ``# noqa`` are skipped."""
    tree = ast.parse(source)
    lines = source.splitlines()
    defined = {}
    for node in tree.body:
        if "# noqa" in lines[node.lineno - 1]:
            continue
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t)
                     if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                defined.setdefault(name, node.lineno)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted((line, name) for name, line in defined.items() if name not in read)


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


def tracer_targets() -> set:
    """The (module, attribute) pairs of perfbench/tracing.TARGETS."""
    for node in ast.parse(TRACING.read_text(encoding="utf-8")).body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets)):
            return {(entry.elts[0].value, entry.elts[1].value) for entry in node.value.elts}
    raise AssertionError(f"no TARGETS in {TRACING}")


def test_tracer_targets_found():
    assert ("sfvem.element", "polygon_rule") in tracer_targets()


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_tracer_only_imports_have_a_tracer_target(path):
    unused = unused_imports(path.read_text(encoding="utf-8"), noqa=True)
    module = f"sfvem.{path.stem}"
    assert {(module, name) for _, name in unused} <= tracer_targets()


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


def test_checker_lists_unused_noqa_f401_imports():
    # only the names on # noqa: F401 lines that the module never reads
    source = ("import numpy as np  # noqa: E402\n"
              "from .geometry import ScaledFrame, polygon_stack  # noqa: F401\n"
              "from .quadrature import (polygon_rule,  # noqa: F401\n"
              "                         rule_size)\n"
              "import os\n"
              "x = polygon_stack(np.zeros(2))\n")
    assert unused_imports(source, noqa=True) == [(2, "ScaledFrame"), (3, "polygon_rule"),
                                                 (3, "rule_size")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_private_helpers(path):
    assert unused_private_names(path.read_text(encoding="utf-8")) == []


def test_private_checker_flags_unused_and_skips_noqa():
    source = ("import numpy as np\n"
              "__all__ = ['run']\n"
              "_SCALE = 2.0\n"
              "_LEFT, _RIGHT = 0, 1\n"
              "_cache: dict = {}\n"
              "def _spans(starts, counts):\n"
              "    return np.repeat(starts, counts)\n"
              "def _kept(x):  # noqa: re-bound by a tracer\n"
              "    return x\n"
              "class _Record:\n"
              "    pass\n"
              "def _helper(x):\n"
              "    return _SCALE * x + _LEFT\n"
              "def unused_public(x):\n"
              "    _local = x\n"
              "    return _local\n"
              "def run(x):\n"
              "    _cache[x] = _helper(x)\n"
              "    return _cache[x]\n")
    assert unused_private_names(source) == [(4, "_RIGHT"), (6, "_spans"), (10, "_Record")]


def foreign_private_names(source: str) -> list:
    """(line, name) of each private name the module takes from elsewhere:
    a _name it imports, or an attribute _attr it uses on anything but self
    or cls. Dunder names are not private."""
    def private(name):
        return name.startswith("_") and not name.startswith("__")

    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            module = node.module if isinstance(node, ast.ImportFrom) else None
            for alias in node.names:
                parts = alias.name.split(".") + (module.split(".") if module else [])
                found += [(node.lineno, part) for part in parts if private(part)]
        elif (isinstance(node, ast.Attribute) and private(node.attr)
              and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"))):
            found.append((node.lineno, node.attr))
    return sorted(found)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_foreign_private_names(path):
    assert foreign_private_names(path.read_text(encoding="utf-8")) == []


def test_foreign_private_checker_flags_imports_and_attributes():
    source = ("from __future__ import annotations\n"
              "import numpy as np\n"
              "from .poly import HarmonicBasis, _pairs\n"
              "from ._impl import run\n"
              "import os._path\n"
              "def _local(x):\n"
              "    return np._core.add(x, x)\n"
              "class Frame:\n"
              "    def area(self, basis):\n"
              "        self._cache = basis._derivatives(self._table)\n"
              "        return type(self).__name__, cls._seen, _local(basis)\n"
              "def fill(record):\n"
              "    record._cells = HarmonicBasis.__doc__\n")
    assert foreign_private_names(source) == [(3, "_pairs"), (4, "_impl"), (5, "_path"),
                                             (7, "_core"), (10, "_derivatives"),
                                             (13, "_cells")]


# name -> the module that defines it; element is the one other module that
# may reference it
SEAM_NAMES = {"polygon_rules": "quadrature", "evaluate_polys": "poly", "CHUNK_BYTES": "element"}


def seam_references(source: str, module: str) -> list:
    """(line, name) of each reference to a SEAM_NAMES name in a module that
    neither defines it nor is element: a name, an attribute or an imported
    name."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [part for alias in node.names for part in alias.name.split(".")]
        else:
            continue
        found += [(node.lineno, name) for name in names
                  if name in SEAM_NAMES and module not in (SEAM_NAMES[name], "element")]
    return sorted(set(found))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_element_meets_rules_and_data(path):
    assert seam_references(path.read_text(encoding="utf-8"), path.stem) == []


def platform_newline_writes(source: str) -> list:
    """Lines of the ``open`` calls that write text (mode with w, a or x
    and no b) without ``newline="\\n"``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "open"):
            continue
        keywords = {k.arg: k.value for k in node.keywords}
        mode = node.args[1] if len(node.args) > 1 else keywords.get("mode")
        mode = mode.value if isinstance(mode, ast.Constant) else "r"
        newline = keywords.get("newline")
        if (set(mode) & set("wax") and "b" not in mode
                and not (isinstance(newline, ast.Constant) and newline.value == "\n")):
            found.append(node.lineno)
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_text_writes_pin_the_newline(path):
    assert platform_newline_writes(path.read_text(encoding="utf-8")) == []


def test_newline_checker_flags_text_writes_only():
    source = ('open(p, "w", encoding="utf-8")\n'
              'open(p, mode="a")\n'
              'open(p, "w", newline="")\n'
              'open(p, "w", encoding="utf-8", newline="\\n")\n'
              'open(p, "wb")\n'
              'open(p)\n'
              'open(p, "r", encoding="utf-8")\n')
    assert platform_newline_writes(source) == [1, 2, 3]


def test_seam_checker_flags_names_attributes_and_imports():
    source = ("from .poly import evaluate_polys\n"
              "from . import quadrature\n"
              "from .element import CHUNK_BYTES, rule_values\n"
              "rule = quadrature.polygon_rules(v, 2)\n"
              "x = evaluate_polys(polys, rule.points) + CHUNK_BYTES\n")
    assert seam_references(source, "analysis") == [(1, "evaluate_polys"), (3, "CHUNK_BYTES"),
                                                   (4, "polygon_rules"), (5, "CHUNK_BYTES"),
                                                   (5, "evaluate_polys")]
    assert seam_references(source, "element") == []
    assert seam_references(source, "poly") == [(3, "CHUNK_BYTES"), (4, "polygon_rules"),
                                               (5, "CHUNK_BYTES")]
