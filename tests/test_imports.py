"""numpy is the package's only runtime dependency, a report does not load
`numpy.ma`, `python -m loopexp` runs the command line, every size
refusal goes through the one budget rule of `_layout`, and every function
the bench traces exists."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_import_loads_no_scipy():
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, loopexp; "
         "print(sorted(m for m in sys.modules if m.startswith('scipy')))"],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
        env={**os.environ, "PYTHONPATH": path})
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_report_loads_no_numpy_ma():
    # np.unique imports numpy.ma on first use, a cost every CLI process
    # would pay in its first trial
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))

    def loaded(code):
        done = subprocess.run(
            [sys.executable, "-c",
             code + "; print('numpy.ma' in sys.modules)"],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
            env={**os.environ, "PYTHONPATH": path})
        assert done.returncode == 0, done.stderr
        return done.stdout.strip() == "True"

    if loaded("import sys, numpy"):
        pytest.skip("import numpy alone loads numpy.ma")
    assert not loaded(
        "import sys, loopexp as lx; "
        "from loopexp.loopseries import split_report; "
        "g = lx.sample_regular_graph(8, 3, 0); "
        "s = lx.FactorSpec.cycle_code(lx.sample_bsc(g, 0.4, 1).h); "
        "m = lx.solve_fixed_point(g, s); "
        "lx.build_expansion_report(g, s, m); split_report(g, s, m)")


def test_module_runs_the_command_line():
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "loopexp", "--help"],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
        env={**os.environ, "PYTHONPATH": path})
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: loopexp ")


def _name(node) -> str:
    """The name a Name or an Attribute node reads, else ''."""
    return getattr(node, "id", None) or getattr(node, "attr", "")


def test_one_budget_rule():
    # only _layout.check_budget raises BudgetError, and only _layout reads
    # MAX_ENTRIES: a layer refuses a size by asking that rule, so a module
    # added later cannot grow a refusal, a cap or a message of its own
    raises, reads = [], []
    for path in sorted((ROOT / "src" / "loopexp").glob("*.py")):
        module = path.stem
        tree = ast.parse(path.read_text(), filename=str(path))
        # the function that holds each node ("" at module level)
        owner = {}
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(func):
                    owner[node] = func.name    # innermost last
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = getattr(node.exc, "func", node.exc)
                if _name(exc) == "BudgetError":
                    raises.append((module, owner.get(node, "")))
            names = ([a.name for a in node.names]
                     if isinstance(node, ast.ImportFrom) else [_name(node)])
            if "MAX_ENTRIES" in names and module != "_layout":
                reads.append((module, node.lineno))
    assert set(raises) == {("_layout", "check_budget")}
    assert reads == []


def test_bench_trace_targets_resolve():
    # the bench tracer records a target it cannot find as a missing layer
    # instead of failing, so a renamed function would zero its metrics
    path = ROOT / "bench" / "run.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    (targets,) = [node.value for node in tree.body
                  if isinstance(node, ast.Assign)
                  and [_name(t) for t in node.targets] == ["TARGETS"]]
    pairs = [(row.elts[0].value, row.elts[1].value) for row in targets.elts]
    assert pairs
    for module, qualname in pairs:
        owner = importlib.import_module(f"loopexp.{module}")
        *outer, attr = qualname.split(".")
        for name in outer:
            owner = getattr(owner, name)
        # the tracer patches the name where it is defined, as vars() sees it
        assert callable(vars(owner).get(attr)), (module, qualname)
