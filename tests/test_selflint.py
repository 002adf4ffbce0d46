"""Repo self-lint tests: each SL rule fires on crafted source, path scoping
works, and the repo itself is clean (the same gate ci.sh enforces)."""

from __future__ import annotations

import pathlib

import selflint

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _ids(violations):
    return [v.rule_id for v in violations]


def test_sl001_mutable_default_literals_and_constructors():
    src = (
        "def a(x=[]):\n    pass\n"
        "def b(y={}):\n    pass\n"
        "def c(*, z=set()):\n    pass\n"
        "def d(w=dict()):\n    pass\n"
    )
    violations = selflint.lint_source(src)
    assert _ids(violations) == ["SL001"] * 4
    assert violations[0].line == 1
    assert "shared across calls" in violations[0].message


def test_sl001_silent_on_immutable_defaults():
    src = "def f(a=None, b=(), c=0, d='x'):\n    return a, b, c, d\n"
    assert selflint.lint_source(src) == []


def test_sl002_bare_except():
    src = "try:\n    pass\nexcept:\n    pass\n"
    violations = selflint.lint_source(src)
    assert _ids(violations) == ["SL002"]
    assert violations[0].line == 3


def test_sl002_silent_on_named_except():
    src = "try:\n    pass\nexcept ValueError:\n    pass\n"
    assert selflint.lint_source(src) == []


def test_sl003_percentile_banned_on_latency_paths():
    src = "import numpy as np\nq = np.percentile([1.0], 90)\n"
    violations = selflint.lint_source(src, "src/repro/loadgen/scenarios.py")
    assert _ids(violations) == ["SL003"]
    assert "nearest-rank" in violations[0].message


def test_sl003_allowed_in_calibration_code():
    src = "import numpy as np\nq = np.percentile([1.0], 90)\n"
    assert selflint.lint_source(src, "src/repro/quantization/ptq.py") == []


def test_sl004_unseeded_global_randomness():
    src = (
        "import random\nimport numpy as np\n"
        "a = random.random()\n"
        "b = np.random.rand(3)\n"
        "c = numpy.random.normal(0, 1)\n"
        "rng = np.random.default_rng()\n"
    )
    violations = selflint.lint_source(src)
    assert _ids(violations) == ["SL004"] * 4
    assert "default_rng(seed)" in violations[0].message


def test_sl004_silent_on_seeded_generator():
    src = (
        "import numpy as np\n"
        "rng = np.random.default_rng(0)\n"
        "rng2 = np.random.default_rng(seed=7)\n"
        "x = rng.normal(0, 1)\n"
    )
    assert selflint.lint_source(src) == []


def test_sl005_dead_local_assignment():
    src = (
        "def f(x):\n"
        "    unused = x + 1\n"
        "    y = x * 2\n"
        "    return y\n"
    )
    violations = selflint.lint_source(src)
    assert _ids(violations) == ["SL005"]
    assert violations[0].line == 2
    assert "'unused'" in violations[0].message


def test_sl005_underscore_prefix_opts_out():
    src = "def f(x):\n    _scratch = x + 1\n    return x\n"
    assert selflint.lint_source(src) == []


def test_sl005_closure_read_counts_as_use():
    src = (
        "def f(x):\n"
        "    captured = x + 1\n"
        "    def inner():\n"
        "        return captured\n"
        "    return inner\n"
    )
    assert selflint.lint_source(src) == []


def test_sl005_nested_function_locals_not_attributed_to_outer():
    src = (
        "def outer(x):\n"
        "    def inner(y):\n"
        "        dead = y + 1\n"
        "        return y\n"
        "    return inner(x)\n"
    )
    violations = selflint.lint_source(src)
    assert [(v.rule_id, v.line) for v in violations] == [("SL005", 3)]
    assert "inner()" in violations[0].message


def test_sl005_globals_and_tuple_unpacking_exempt():
    src = (
        "def f(x):\n"
        "    global counter\n"
        "    counter = x\n"
        "    a, b = x, x + 1\n"
        "    return a + b\n"
    )
    assert selflint.lint_source(src) == []


KERNEL = "src/repro/kernels/activations.py"


def test_sl006_fires_on_the_old_gelu_cube():
    # the gelu line that sent MobileBERT's cube through float64 pow
    src = "inner = np.sqrt(2.0 / np.pi) * (x + 0.044715 * x**3)\n"
    violations = selflint.lint_source(src, KERNEL)
    assert _ids(violations) == ["SL006"]
    assert "x * x * x" in violations[0].message


def test_sl006_fires_on_any_non_constant_base():
    src = (
        "a = (x - m) ** 4\n"
        "b = arr.sum() ** 3\n"
        "y **= 5\n"
    )
    assert _ids(selflint.lint_source(src, KERNEL)) == ["SL006"] * 3


def test_sl006_allows_squares_constants_and_other_paths():
    src = (
        "a = x**2\n"
        "b = 2**24\n"
        "c = -(2**31) - 1\n"
        "d = (1 << 7) ** 3\n"
        "e = x ** 0.5\n"
        "f = x ** n\n"
    )
    assert selflint.lint_source(src, KERNEL) == []
    assert selflint.lint_source("y = x**3\n", "src/repro/metrics/qa.py") == []


def test_sl000_syntax_error():
    violations = selflint.lint_source("def broken(:\n")
    assert _ids(violations) == ["SL000"]


def test_violations_sorted_by_location():
    src = "try:\n    pass\nexcept:\n    pass\ndef f(a=[]):\n    pass\n"
    violations = selflint.lint_source(src)
    assert [(v.line, v.rule_id) for v in violations] == [(3, "SL002"), (5, "SL001")]


def test_repo_is_clean():
    targets = [ROOT / "src", ROOT / "tests", ROOT / "tools"]
    assert selflint.lint_paths(targets) == []


def test_main_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("def f(a=[]):\n    pass\n")
    assert selflint.main([str(bad)]) == 1
    good = tmp_path / "good.py"
    good.write_text("def f(a=None):\n    pass\n")
    assert selflint.main([str(good)]) == 0
    capsys.readouterr()
