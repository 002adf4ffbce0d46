"""Every ``from repro... import name`` and ``import repro...`` in the examples,
the paper benchmarks, the tools and the repo benchmark (``perfbench/``)
resolves, and every keyword a script passes to an imported name is one of its
parameters. Nothing in the tier-1 suite runs those scripts, so a renamed or
deleted public name or parameter would otherwise only surface when someone
runs one. The scripts are parsed, never executed."""

from __future__ import annotations

import ast
import importlib
import inspect
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = [path for folder in ("examples", "benchmarks", "tools", "perfbench")
           for path in sorted((ROOT / folder).glob("*.py"))]


def _repro_imports(path: Path) -> list[tuple[str, str | None]]:
    """(module, name) for every ``from repro... import name`` in ``path``, and
    (module, None) for every ``import repro...``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found: list[tuple[str, str | None]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            found += [(node.module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            found += [(alias.name, None) for alias in node.names]
    return [(module, name) for module, name in found if module.split(".")[0] == "repro"]


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: f"{p.parent.name}-{p.name}")
def test_repro_imports_resolve(path):
    missing = []
    for module, name in _repro_imports(path):
        mod = importlib.import_module(module)
        if name is not None and not hasattr(mod, name):
            try:
                importlib.import_module(f"{module}.{name}")
            except ModuleNotFoundError:
                missing.append(f"{module}.{name}")
    assert not missing, f"{path.name} imports names that do not exist: {missing}"


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: f"{p.parent.name}-{p.name}")
def test_repro_keywords_exist(path):
    """Each keyword in a call of a name imported ``from repro...`` is a parameter
    of that name's signature, unless the signature takes ``**kwargs``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module \
                and node.module.split(".")[0] == "repro":
            module = importlib.import_module(node.module)
            imported.update({alias.asname or alias.name: getattr(module, alias.name, None)
                             for alias in node.names})
    unknown = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and callable(obj := imported.get(node.func.id))):
            continue
        params = inspect.signature(obj).parameters
        if any(p.kind is p.VAR_KEYWORD for p in params.values()):
            continue
        unknown += [f"{node.func.id}({kw.arg}=) at line {node.lineno}"
                    for kw in node.keywords if kw.arg is not None and kw.arg not in params]
    assert not unknown, f"{path.name} passes keywords that do not exist: {unknown}"


def test_scan_finds_scripts():
    assert len(SCRIPTS) >= 10
    assert any(_repro_imports(p) for p in SCRIPTS)
