"""Every ``from repro... import name`` and ``import repro...`` in the examples,
the paper benchmarks, the tools and the repo benchmark (``perfbench/``)
resolves. Nothing in the tier-1 suite runs those scripts, so a renamed or
deleted public name would otherwise only surface when someone runs one.
The scripts are parsed, never executed."""

from __future__ import annotations

import ast
import importlib
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


def test_scan_finds_scripts():
    assert len(SCRIPTS) >= 10
    assert any(_repro_imports(p) for p in SCRIPTS)
