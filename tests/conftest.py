"""Shared fixtures. Expensive artifacts are session-scoped and tiny."""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from repro.graph import Executor, GraphBuilder, export_mobile
from repro.models import available_models, create_reference_model
from repro.datasets import create_dataset

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


def build_toy_graph(seed: int = 7, size: int = 12, channels: int = 8):
    """Small conv net exercising conv/dw/add/pool/fc/softmax + BN."""
    b = GraphBuilder("toy", seed=seed)
    x = b.input("images", (-1, size, size, 3))
    h = b.conv(x, channels, k=3, stride=2, activation="relu6", use_bn=True)
    h = b.dwconv(h, k=3, activation="relu6", use_bn=True)
    h2 = b.conv(h, channels, k=1, use_bn=True)
    h = b.add(h, h2)
    h = b.global_pool(h)
    h = b.reshape(h, (channels,))
    h = b.fc(h, 10)
    out = b.softmax(h)
    b.outputs(out)
    return b.build(), out


@pytest.fixture()
def toy_graph():
    return build_toy_graph()


@pytest.fixture()
def toy_exported(toy_graph):
    graph, out = toy_graph
    return export_mobile(graph), out


@pytest.fixture()
def toy_inputs(rng):
    return {"images": rng.normal(0, 0.5, (6, 12, 12, 3)).astype(np.float32)}


# ---- session-scoped heavy artifacts (built once per test session) ----------

@pytest.fixture(scope="session")
def unfitted_zoo():
    """``{name: (built, exported)}`` for every zoo model, unfitted.

    ``built`` is the graph as the factory returns it (batch norms unfolded);
    ``exported`` is frozen (read-only params), so tests can share both as
    long as they only read them.
    """
    zoo = {}
    for name in available_models():
        built = create_reference_model(name, fitted=False).graph
        zoo[name] = (built, export_mobile(built))
    return zoo


@pytest.fixture(scope="session")
def cls_bundle():
    return create_reference_model("mobilenet_edgetpu")


@pytest.fixture(scope="session")
def cls_exported(cls_bundle):
    return export_mobile(cls_bundle.graph)


@pytest.fixture(scope="session")
def cls_dataset(cls_bundle, cls_exported):
    return create_dataset("imagenet", cls_exported, cls_bundle.config, size=96)


@pytest.fixture(scope="session")
def qa_bundle():
    return create_reference_model("mobilebert")


@pytest.fixture(scope="session")
def qa_exported(qa_bundle):
    return export_mobile(qa_bundle.graph)


@pytest.fixture(scope="session")
def qa_dataset(qa_bundle, qa_exported):
    return create_dataset("squad", qa_exported, qa_bundle.config, size=48)


@pytest.fixture(scope="session")
def reference_check():
    """``(process, {entry: {item: verdict}})`` of one ``tools/references.py
    --check`` of every entry, in a process of its own so it can pin BLAS."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "references.py"), "--check"],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=600,
    )
    verdicts: dict[str, dict[str, str]] = {}
    for line in proc.stdout.splitlines():
        verdict, entry, item = line.partition(": ")[0].split(" ", 2)
        verdicts.setdefault(entry, {})[item] = verdict
    return proc, verdicts
