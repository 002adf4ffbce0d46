"""Every ``from repro... import name`` in the examples and the paper benchmarks
resolves. Nothing in the tier-1 suite runs those scripts, so a renamed or
deleted public name would otherwise only surface when someone runs one.
The scripts are parsed, never executed."""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted((ROOT / "examples").glob("*.py")) + sorted((ROOT / "benchmarks").glob("*.py"))


def _repro_imports(path: Path) -> list[tuple[str, str]]:
    """(module, name) for every ``from repro... import name`` in ``path``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 0
        and node.module and node.module.split(".")[0] == "repro"
        for alias in node.names
    ]


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: f"{p.parent.name}-{p.name}")
def test_repro_imports_resolve(path):
    missing = []
    for module, name in _repro_imports(path):
        mod = importlib.import_module(module)
        if not hasattr(mod, name):
            try:
                importlib.import_module(f"{module}.{name}")
            except ModuleNotFoundError:
                missing.append(f"{module}.{name}")
    assert not missing, f"{path.name} imports names that do not exist: {missing}"


def test_scan_finds_scripts():
    assert len(SCRIPTS) >= 10
    assert any(_repro_imports(p) for p in SCRIPTS)
