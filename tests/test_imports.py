"""Every module under src/relprop uses each name it imports, and imports
no underscore-prefixed name from another relprop module.

Checked with the standard library's `ast`: a name counts as used when it
appears as an identifier, as the root of an attribute access, or inside a
string annotation. `__init__.py` re-exports names and is exempt from the
first check.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "relprop"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
ALL_MODULES = sorted(PACKAGE.glob("*.py"))


def _imported(tree: ast.Module) -> dict[str, int]:
    out: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                out.setdefault(name, node.lineno)
    return out


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used(tree: ast.Module) -> set[str]:
    out = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for ann in _annotations(tree):
        for n in ast.walk(ann) if ann is not None else ():
            if isinstance(n, ast.Constant) and isinstance(n.value, str):
                out |= _used(ast.parse(n.value, mode="eval"))
    return out


def unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    used = _used(tree)
    return [f"{path.name}:{line}: {name}"
            for name, line in sorted(_imported(tree).items(),
                                     key=lambda kv: (kv[1], kv[0]))
            if name not in used]


def private_imports(path: Path) -> list[str]:
    """Underscore-prefixed names imported from a relprop module."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    return [f"{path.name}:{node.lineno}: {alias.name}"
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and (node.level > 0 or (node.module or "").split(".")[0] == "relprop")
            for alias in node.names if alias.name.startswith("_")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def test_checker_flags_an_unused_name(tmp_path):
    mod = tmp_path / "m.py"
    mod.write_text("from __future__ import annotations\n"
                   "import os, sys\n"
                   "from typing import Optional\n"
                   "def f(x: 'Optional[int]') -> None:\n"
                   "    return sys.exit(x)\n", encoding="utf-8")
    assert unused_imports(mod) == ["m.py:2: os"]


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: p.name)
def test_no_private_cross_module_imports(path):
    assert private_imports(path) == []


def test_checker_flags_a_private_import(tmp_path):
    mod = tmp_path / "m.py"
    mod.write_text("from __future__ import annotations\n"
                   "from .selfcomp import footprint_locs, _tail\n"
                   "from relprop.logic import _fresh\n"
                   "from os import _exit\n", encoding="utf-8")
    assert private_imports(mod) == ["m.py:2: _tail", "m.py:3: _fresh"]


def dataclass_importers(paths) -> list[str]:
    """The modules that import `dataclass` (the decorator) from
    `dataclasses`, by name or as `dataclasses.dataclass`."""
    out = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "dataclasses" \
                    and any(a.name in ("dataclass", "*") for a in node.names) \
                    or isinstance(node, ast.Import) \
                    and any(a.name == "dataclasses" for a in node.names) \
                    or isinstance(node, ast.Attribute) and node.attr == "dataclass":
                out.append(f"{path.name}:{node.lineno}")
    return out


def test_only_frozen_applies_dataclass():
    """Every other record derives from `frozen.Frozen`, which registers its
    fields without generating methods."""
    assert [p for p in dataclass_importers(ALL_MODULES)
            if not p.startswith("frozen.py:")] == []
    assert dataclass_importers([PACKAGE / "frozen.py"]) != []


def test_checker_flags_a_dataclass_import(tmp_path):
    mod = tmp_path / "m.py"
    mod.write_text("from dataclasses import field, dataclass\n"
                   "import dataclasses\n"
                   "from dataclasses import replace\n", encoding="utf-8")
    assert dataclass_importers([mod]) == ["m.py:1", "m.py:2"]
