#!/usr/bin/env python
"""AST-based repo self-lint: bans the foot-guns this codebase has been bitten by.

Rules
-----
SL001  mutable default argument — a ``def`` whose default is a list/dict/set
       literal (or constructor call): the default is shared across calls.
SL002  bare ``except:`` — swallows KeyboardInterrupt/SystemExit and hides
       real faults from the fault-injection suites.
SL003  interpolated ``np.percentile`` on a latency path — MLPerf latency
       percentiles are the nearest-rank order statistic; NumPy's default
       linear interpolation manufactures latencies no query ever had (the
       exact bug class fixed in the conformance PR). Latency paths must use
       ``repro.loadgen.scenarios.percentile_latency``. Code off those
       paths (e.g. quantization/) is out of scope.
SL004  unseeded global randomness — ``np.random.*`` / ``random.*`` module
       calls (and ``default_rng()`` with no seed) draw from hidden global or
       OS-entropy state, so latency/accuracy runs stop being reproducible.
       Use an explicitly seeded ``np.random.default_rng(seed)`` Generator.
SL005  dead local assignment — a plain local is assigned once and never
       read anywhere in the function: either a bug (the intended use was
       dropped in a refactor) or noise. Prefix with ``_`` when the
       assignment is intentional (e.g. tuple unpacking).
SL006  ``pow`` in a kernel — a non-constant base raised to an integer
       literal >= 3 (``x**3``) under ``kernels/``. NumPy routes it to float64
       ``pow``, 40x slower than repeated multiplication (158.6 ms against
       4.0 ms on 2M float64); MobileBERT's gelu spent 30% of a cold suite
       there. Write ``x * x * x``. Constant expressions such as ``2**24``
       stay allowed.

Usage: ``python tools/selflint.py [paths...]`` (defaults to src/ and tests/);
exits 1 when any finding fires. ``lint_source`` is the testable core API.
"""

from __future__ import annotations

import ast
import pathlib
import sys

__all__ = ["Violation", "lint_source", "lint_file", "lint_paths", "main"]

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

# directories where latency statistics live; np.percentile is banned here
LATENCY_PATHS = ("loadgen", "core", "analysis", "benchmarks")
# directories of the executor's kernels; x**n with n >= 3 is banned here
KERNEL_PATHS = ("kernels",)

_MUTABLE_LITERALS = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)
_MUTABLE_CALLS = {"list", "dict", "set", "defaultdict", "OrderedDict", "Counter", "deque"}


class Violation:
    def __init__(self, rule_id: str, path: str, line: int, message: str):
        self.rule_id = rule_id
        self.path = path
        self.line = line
        self.message = message

    def __repr__(self) -> str:
        return f"{self.path}:{self.line}: {self.rule_id} {self.message}"


def _is_mutable_default(node: ast.expr) -> bool:
    if isinstance(node, _MUTABLE_LITERALS):
        return True
    if isinstance(node, ast.Call):
        fn = node.func
        name = fn.id if isinstance(fn, ast.Name) else getattr(fn, "attr", None)
        return name in _MUTABLE_CALLS
    return False


def _on_path(path: str, dirs: tuple[str, ...]) -> bool:
    parts = pathlib.PurePath(path).parts
    return any(p in dirs for p in parts)


def _is_constant_expr(node: ast.expr) -> bool:
    """A literal, or arithmetic over literals only (``2**24``, ``-(1 << 7)``)."""
    if isinstance(node, ast.Constant):
        return True
    if isinstance(node, ast.UnaryOp):
        return _is_constant_expr(node.operand)
    if isinstance(node, ast.BinOp):
        return _is_constant_expr(node.left) and _is_constant_expr(node.right)
    return False


def _is_pow_by_int(node: ast.AST) -> bool:
    """``base ** n`` (or ``base **= n``) with ``n`` an int literal >= 3 and a
    base that is not a constant expression."""
    if isinstance(node, ast.BinOp):
        base, op, exp = node.left, node.op, node.right
    elif isinstance(node, ast.AugAssign):
        base, op, exp = node.target, node.op, node.value
    else:
        return False
    return (isinstance(op, ast.Pow)
            and isinstance(exp, ast.Constant) and type(exp.value) is int
            and exp.value >= 3 and not _is_constant_expr(base))


def _global_random_call(node: ast.Call) -> str | None:
    """The dotted name of an unseeded global-randomness call, if this is one.

    Matches ``random.<fn>(...)`` and ``np.random.<fn>(...)`` /
    ``numpy.random.<fn>(...)``; ``default_rng`` is exempt when given an
    explicit seed argument (that is the sanctioned Generator construction).
    """
    fn = node.func
    if not isinstance(fn, ast.Attribute):
        return None
    base = fn.value
    if isinstance(base, ast.Name) and base.id == "random":
        return f"random.{fn.attr}"
    if (isinstance(base, ast.Attribute) and base.attr == "random"
            and isinstance(base.value, ast.Name) and base.value.id in ("np", "numpy")):
        if fn.attr == "default_rng" and (node.args or node.keywords):
            return None  # explicitly seeded Generator: the sanctioned form
        return f"{base.value.id}.random.{fn.attr}"
    return None


_SCOPE_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def _walk_same_scope(node: ast.AST):
    """Yield descendants of ``node`` without entering nested scopes."""
    stack = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        if isinstance(child, _SCOPE_NODES):
            continue
        yield child
        stack.extend(ast.iter_child_nodes(child))


def _dead_local_assignments(fn: ast.FunctionDef | ast.AsyncFunctionDef):
    """``(name, lineno)`` of locals assigned in ``fn`` but never read.

    Candidates are plain single-``Name`` assignments in the function's own
    scope (not nested defs); a name counts as read if it is loaded anywhere
    inside the function *including* nested scopes (closures). ``_``-prefixed
    names and ``global``/``nonlocal`` declarations are exempt.
    """
    declared_elsewhere: set[str] = set()
    candidates: dict[str, int] = {}
    for node in _walk_same_scope(fn):
        if isinstance(node, (ast.Global, ast.Nonlocal)):
            declared_elsewhere.update(node.names)
        elif (isinstance(node, ast.Assign) and len(node.targets) == 1
              and isinstance(node.targets[0], ast.Name)
              and not node.targets[0].id.startswith("_")):
            name = node.targets[0].id
            if name not in candidates:
                candidates[name] = node.lineno
    loaded = {
        node.id for node in ast.walk(fn)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [(name, line) for name, line in candidates.items()
            if name not in loaded and name not in declared_elsewhere]


def lint_source(source: str, path: str = "<string>") -> list[Violation]:
    """Lint one module's source text; ``path`` decides path-scoped rules."""
    out: list[Violation] = []
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [Violation("SL000", path, exc.lineno or 0, f"syntax error: {exc.msg}")]

    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for d in defaults:
                if _is_mutable_default(d):
                    out.append(Violation(
                        "SL001", path, d.lineno,
                        f"mutable default argument in {node.name}(); the object "
                        f"is created once and shared across calls"))
            for name, line in _dead_local_assignments(node):
                out.append(Violation(
                    "SL005", path, line,
                    f"local '{name}' in {node.name}() is assigned but never "
                    f"read; delete it or prefix with '_' if intentional"))
        elif isinstance(node, ast.ExceptHandler) and node.type is None:
            out.append(Violation(
                "SL002", path, node.lineno,
                "bare 'except:' swallows KeyboardInterrupt/SystemExit; name "
                "the exceptions"))
        elif (isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute)
              and node.func.attr == "percentile"
              and _on_path(path, LATENCY_PATHS)):
            out.append(Violation(
                "SL003", path, node.lineno,
                "interpolated percentile on a latency path; use the "
                "nearest-rank percentile_latency (MLPerf statistic)"))
        elif isinstance(node, ast.Call):
            dotted = _global_random_call(node)
            if dotted is not None:
                out.append(Violation(
                    "SL004", path, node.lineno,
                    f"unseeded global randomness '{dotted}(...)'; use an "
                    f"explicitly seeded np.random.default_rng(seed)"))
        elif _is_pow_by_int(node) and _on_path(path, KERNEL_PATHS):
            out.append(Violation(
                "SL006", path, node.lineno,
                "integer power >= 3 of an array in a kernel goes through "
                "float64 pow; write the repeated product (x * x * x)"))
    return sorted(out, key=lambda v: (v.path, v.line, v.rule_id))


def lint_file(path: pathlib.Path, root: pathlib.Path = REPO_ROOT) -> list[Violation]:
    rel = str(path.relative_to(root)) if path.is_relative_to(root) else str(path)
    return lint_source(path.read_text(), rel)


def lint_paths(paths: list[pathlib.Path], root: pathlib.Path = REPO_ROOT) -> list[Violation]:
    out: list[Violation] = []
    for p in paths:
        files = sorted(p.rglob("*.py")) if p.is_dir() else [p]
        for f in files:
            out.extend(lint_file(f, root))
    return out


def main(argv: list[str] | None = None) -> int:
    args = argv if argv is not None else sys.argv[1:]
    targets = [pathlib.Path(a) for a in args] or [
        REPO_ROOT / "src", REPO_ROOT / "tests", REPO_ROOT / "tools"
    ]
    violations = lint_paths(targets)
    for v in violations:
        print(v)
    print(f"selflint: {len(violations)} violation(s) in "
          f"{', '.join(str(t) for t in targets)}")
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
