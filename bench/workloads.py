"""The three benchmark workloads: one trial each, plus its output checks.

A trial is one instance.  Its seed comes from the workload seed and the
trial's position in a fixed set of ``set_size`` instances, which a run walks
through in order and wraps around.  ``run`` is the timed part; ``inspect`` is
untimed and returns the values compared against the recorded reference
together with every self-consistency problem it found.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import shutil
import tempfile
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import loopexp
from loopexp import cli

# Tolerances of the self-consistency checks.  The identity holds to ~1e-14
# at these sizes; z_loops and z_all differ only by the degree-one activities
# left at a BP tolerance of 1e-12.
IDENTITY_TOL = 1e-12
LOOPS_RTOL = 1e-9
POLYMER_RTOL = 1e-10

# Reference comparison: relative 1e-9 for floats (an absolute floor of 1e-12
# for values near zero, such as small Mayer orders), exact for counts.
REF_RTOL = 1e-9
REF_ATOL = 1e-12
EXACT_KEYS = ("num_edges", "catalog_size", "sweeps", "violations")


def trial_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def compare_reference(values: dict, ref: dict) -> list[str]:
    """Every mismatch between a trial's values and the recorded ones."""
    problems = []
    for key, want in ref.items():
        got = values.get(key)
        if key in EXACT_KEYS or want is None:
            ok = got == want
        elif isinstance(want, list):
            ok = (isinstance(got, list) and len(got) == len(want)
                  and all(math.isclose(g, w, rel_tol=REF_RTOL,
                                       abs_tol=REF_ATOL)
                          for g, w in zip(got, want)))
        else:
            ok = got is not None and math.isclose(got, want, rel_tol=REF_RTOL,
                                                  abs_tol=REF_ATOL)
        if not ok:
            problems.append(f"{key}={got!r} differs from reference {want!r}")
    return problems


@dataclass(frozen=True)
class CliWorkload:
    """``loopexp verify-identity`` on one instance per trial, through cli.main."""

    name: str
    n: int
    warm_n: int
    set_size: int
    models: tuple[tuple[str, ...], ...]   # model flags, alternated per trial
    extra: tuple[str, ...] = ()

    def argv(self, index: int, seed: int, out_dir: str) -> list[str]:
        model = self.models[index % len(self.models)]
        return ["verify-identity", "-n", str(self.n), "--trials", "1",
                *self.extra, *model, "--seed", str(seed),
                "--out-dir", out_dir]

    def warm(self):
        return replace(self, n=self.warm_n)

    def run(self, index: int, seed: int, work_dir: Path):
        out = tempfile.mkdtemp(dir=work_dir)
        argv = self.argv(index, seed, out)
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        return code, Path(out)

    def inspect(self, outcome) -> tuple[dict, list[str]]:
        code, out = outcome
        try:
            return self._inspect(code, out)
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def _inspect(self, code: int, out: Path) -> tuple[dict, list[str]]:
        if code != 0:
            return {}, [f"cli exit code {code}"]
        reports = sorted((out / "reports").glob("*.json"))
        if len(reports) != 1:
            return {}, [f"expected one report, found {len(reports)}"]
        doc = json.loads(reports[0].read_text())
        values = {
            "exact_log_z": doc.get("exact_log_z"),
            "bethe_total": doc.get("bethe_total"),
            "z_corr_all": doc.get("z_corr_all"),
            "mayer_orders": doc.get("mayer_orders"),
            "criterion": doc.get("criterion"),
            "num_edges": doc.get("num_edges"),
            "catalog_size": doc.get("catalog_size"),
            "sweeps": doc.get("sweeps"),
        }
        # an empty catalog (no polymer under the cap) runs no Mayer orders
        absent = [k for k, v in values.items() if v is None
                  and not (k == "mayer_orders" and values["catalog_size"] == 0)]
        if absent or doc.get("z_corr_loops") is None:
            return values, [f"report fields missing: {absent}"]
        problems = []
        if not doc.get("converged"):
            problems.append("BP did not converge")
        z_all = values["z_corr_all"]
        if z_all <= 0:
            problems.append(f"z_corr_all={z_all!r} is not positive")
        else:
            residual = abs(values["exact_log_z"] - values["bethe_total"]
                           - math.log(z_all))
            if not residual <= IDENTITY_TOL:
                problems.append(f"identity residual {residual:.3e}")
        if not math.isclose(doc["z_corr_loops"], z_all, rel_tol=LOOPS_RTOL):
            problems.append(f"z_corr_loops={doc['z_corr_loops']!r} != "
                            f"z_corr_all={z_all!r}")
        if doc.get("catalog_truncated") is False:
            z_poly = doc.get("z_corr_polymer")
            if z_poly is None or not math.isclose(z_poly, z_all,
                                                  rel_tol=POLYMER_RTOL):
                problems.append(f"z_corr_polymer={z_poly!r} != "
                                f"z_corr_all={z_all!r} on a covering catalog")
        problems += _check_summary(out / "summary.csv", values)
        return values, problems


def _check_summary(path: Path, values: dict) -> list[str]:
    """The summary CSV row must carry the report's values."""
    if not path.exists():
        return ["summary.csv missing"]
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(ln for ln in fh if not ln.startswith("#")))
    if len(rows) != 1:
        return [f"summary.csv has {len(rows)} rows"]
    row = rows[0]
    for column, key in (("exact_log_z", "exact_log_z"),
                        ("bethe_total", "bethe_total"),
                        ("z_corr", "z_corr_all")):
        if column not in row or float(row[column]) != values[key]:
            return [f"summary.csv {column}={row.get(column)!r} differs "
                    f"from the report"]
    return []


@dataclass(frozen=True)
class LargeNWorkload:
    """The large-n public-API path: sample, BP, Bethe, table, capped catalog."""

    name: str
    n: int
    warm_n: int
    set_size: int
    p: float = 0.3
    tol: float = 1e-10
    node_cap: int = 5

    def warm(self):
        return replace(self, n=self.warm_n)

    def run(self, index: int, seed: int, work_dir: Path):
        lx = loopexp
        g = lx.sample_regular_graph(self.n, 3, [seed, 0])
        spec = lx.FactorSpec.cycle_code(lx.sample_bsc(g, self.p, [seed, 1]).h)
        msgs = lx.solve_fixed_point(g, spec, tol=self.tol)
        bethe = lx.bethe_log_partition(g, spec, msgs)
        table = lx.ActivityTable(g, spec, msgs)
        catalog = lx.enumerate_polymers(g, self.node_cap)
        acts = table.polymer_activities(catalog)
        crit = lx.convergence_criterion(catalog, acts)
        viol = lx.activity_bound_violations(
            catalog, acts, h=lx.half_llr_magnitude(self.p))
        return g, spec, msgs, bethe, catalog, acts, crit, viol

    def inspect(self, outcome) -> tuple[dict, list[str]]:
        g, spec, msgs, bethe, catalog, acts, crit, viol = outcome
        values = {
            "bethe_total": float(bethe.total),
            "criterion": float(crit),
            "catalog_size": len(catalog),
            "sweeps": int(msgs.sweeps),
            "violations": len(viol),
        }
        problems = []
        if not (msgs.converged and msgs.residual <= self.tol):
            problems.append(f"BP not converged (residual {msgs.residual!r})")
        # one more undamped sweep from the returned messages must move no
        # message by more than tol, so a restart converges at once
        again = loopexp.solve_fixed_point(g, spec, tol=self.tol, init=msgs)
        if not (again.converged and again.sweeps == 1):
            problems.append("returned messages are not a fixed point")
        if not math.isfinite(values["bethe_total"]):
            problems.append("Bethe value is not finite")
        if len(acts) != len(catalog) or not np.all(np.isfinite(acts)):
            problems.append("polymer activities missing or not finite")
        if not (math.isfinite(crit) and crit >= 0.0):
            problems.append(f"criterion {crit!r} is not a finite sup")
        return values, problems


WORKLOADS = {
    w.name: w for w in (
        CliWorkload(
            name="identity_exact", n=14, warm_n=8, set_size=64,
            models=(("--model", "cycle-code", "-p", "0.45"),
                    ("--model", "high-temperature", "--coupling", "0.05",
                     "--field-bound", "0.2")),
            extra=("--node-cap", "3")),
        CliWorkload(
            name="polymer_mayer", n=12, warm_n=8, set_size=32,
            models=(("-p", "0.45"),)),
        LargeNWorkload(name="large_n_local", n=10_000, warm_n=200,
                       set_size=16),
    )
}
