"""Every module-level import in the package is read by its module."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "instrujoule"
# the package root imports names to re-export them
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names bound by ``source``'s top-level imports that nothing in it reads."""
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in read]


def test_modules_found():
    assert len(MODULES) >= 13


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("source, unused", [
    ("import math\nimport sys\nsys.exit()\n", ["line 1: math"]),
    ("import numpy as np\nfrom dataclasses import dataclass, field\n@dataclass\nclass A: pass\n",
     ["line 1: np", "line 2: field"]),
    ("from . import _csv\nfrom ._checks import check_number\ncheck_number('x', 1)\n", ["line 1: _csv"]),
    ("import os.path\nos.path.join('a')\n", []),
    ("from __future__ import annotations\nimport math\ndef f(x: math.inf): pass\n", []),
])
def test_finder(source, unused):
    assert unused_imports(source) == unused
