"""Every top-level name the package defines is named by the program.

A name that only the tests use is code the program carries for nothing:
the tests of such a name belong with it in ``oracles.py``.  The program is
``src/``, ``perfbench/``, ``scripts/`` and the console entry points of
``pyproject.toml``.  A name counts as named when an identifier, attribute
or import anywhere in the program spells it, outside the top-level
statement that defines it.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "tractionmap"
PROGRAM_DIRS = ("src", "perfbench", "scripts")


def _defined(statement: ast.stmt) -> list[str]:
    """The names a top-level statement defines, dunders left out."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef)):
        names = [statement.name]
    elif isinstance(statement, ast.Assign):
        names = [node.id for target in statement.targets
                 for node in ast.walk(target) if isinstance(node, ast.Name)]
    elif isinstance(statement, ast.AnnAssign):
        names = [statement.target.id]
    else:
        names = []
    return [n for n in names if not (n.startswith("__") and n.endswith("__"))]


def _spelled(statement: ast.stmt) -> Counter:
    """How often a statement names each identifier: read as a variable,
    as an attribute or in an import.  Assignment targets define a name;
    they do not name it."""
    found: Counter = Counter()
    for node in ast.walk(statement):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.alias):
            found[node.name.rsplit(".", 1)[-1]] += 1
    return found


def _unnamed_definitions() -> list[str]:
    named: Counter = Counter()
    definitions = []   # (module, name, what the defining statement spells)
    for directory in PROGRAM_DIRS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            for statement in tree.body:
                spelled = _spelled(statement)
                named.update(spelled)
                if path.parent == PACKAGE:
                    definitions += [(path.stem, name, spelled)
                                    for name in _defined(statement)]
    pyproject = (ROOT / "pyproject.toml").read_text()
    named.update(re.findall(r'"[\w.]+:(\w+)"', pyproject))
    return [f"{module}.{name}" for module, name, spelled in definitions
            if named[name] - spelled[name] == 0]


def test_every_package_name_is_named_by_the_program():
    assert _unnamed_definitions() == []
