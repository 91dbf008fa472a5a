"""numpy is the package's only runtime dependency, a report does not load
`numpy.ma`, and `python -m loopexp` runs the command line."""

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
