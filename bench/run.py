"""loopexp benchmark: one workload per run, timed end to end or traced per layer.

Run from the repository root:

    python3 bench/run.py --workload identity_exact --seed 0 --seconds 30 --trace 0

The run imports ``loopexp`` from ``src/`` next to this directory, sets up (the
import plus one warm-up trial at a small size), then runs trials of the
workload for ``--seconds`` seconds, at least three.  Every trial's outputs are
checked; at the default seed they are also compared with ``reference.json``.
With ``--trace 0`` the last line of output reports the end-to-end metrics,
with ``--trace 1`` the per-layer metrics from wrapped calls into ``loopexp``.
The line before it holds the run's metadata.  See README.md.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

from tracer import Tracer, installed_wrappers  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE = BENCH_DIR / "reference.json"

DEFAULT_SEED = 0
HOLDOUT_SEED = 7919       # for gain claims; never used while tuning a change
MIN_TRIALS = 3
MIN_PAIRS = 2
SETUP_SAMPLES = 7         # this process plus six fresh probe processes
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")

END_TO_END = {
    "trials_per_s": "1/s",
    "trial_s.p50": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "ok_frac": "fraction",
}

PER_LAYER = {
    "model.exact_log_partition.self_s": "s",
    "model.exact_log_partition.configs": "count",
    "loopseries.scan_correction.self_s": "s",
    "loopseries.scan_correction.subsets": "count",
    "loopseries.mayer_expansion.self_s": "s",
    "loopseries.mayer_expansion.polymers": "count",
    "loopseries.mayer_expansion.matrix_bytes_computed": "B",
    "graphs.enumerate_polymers.self_s": "s",
    "graphs.enumerate_polymers.polymers": "count",
    "loopseries.z_corr_polymer_form.self_s": "s",
    "loopseries.polymer_activities.self_s": "s",
    "bp.bethe_log_partition.self_s": "s",
    "loopseries.ActivityTable.self_s": "s",
    "bp.solve_fixed_point.self_s": "s",
    "bp.solve_fixed_point.sweeps": "count",
    "bp.solve_fixed_point.unconverged": "count",
    "graphs.sample_regular_graph.self_s": "s",
    "channel.sample_bsc.self_s": "s",
    "loopseries.convergence_criterion.self_s": "s",
    "bounds.activity_bound_violations.self_s": "s",
    "loopseries.build_expansion_report.self_s": "s",
    "loopseries.ExpansionReport.save_json.self_s": "s",
    "cli.main.self_s": "s",
    "bench.trial.self_s": "s",
    "loopseries.nonzero_activity_frac": "fraction",
    "trace.overhead_frac": "fraction",
}


def _add(counts, key, value):
    counts[key] = counts.get(key, 0) + value


def _count_configs(counts, args, kwargs, result):
    graph = args[0] if args else kwargs["graph"]
    _add(counts, "model.exact_log_partition.configs", 2 ** graph.num_edges)


def _count_subsets(counts, args, kwargs, result):
    _add(counts, "loopseries.scan_correction.subsets", result.num_subsets)


def _count_mayer(counts, args, kwargs, result):
    P = result.num_polymers
    _add(counts, "loopseries.mayer_expansion.polymers", P)
    _add(counts, "loopseries.mayer_expansion.matrix_bytes_computed", 8 * P * P)


def _count_catalog(counts, args, kwargs, result):
    _add(counts, "graphs.enumerate_polymers.polymers", len(result))


def _count_sweeps(counts, args, kwargs, result):
    _add(counts, "bp.solve_fixed_point.sweeps", result.sweeps)
    _add(counts, "bp.solve_fixed_point.unconverged", int(not result.converged))


def _count_activities(counts, args, kwargs, result):
    import numpy as np
    _add(counts, "activities", len(result))
    _add(counts, "activities.nonzero", int(np.count_nonzero(result)))


# (module under loopexp, qualified name there, layer, counter)
TARGETS = (
    ("graphs", "sample_regular_graph", "graphs.sample_regular_graph", None),
    ("channel", "sample_bsc", "channel.sample_bsc", None),
    ("model", "exact_log_partition", "model.exact_log_partition",
     _count_configs),
    ("bp", "solve_fixed_point", "bp.solve_fixed_point", _count_sweeps),
    ("bp", "bethe_log_partition", "bp.bethe_log_partition", None),
    ("loopseries", "ActivityTable.__init__", "loopseries.ActivityTable", None),
    ("loopseries", "ActivityTable.polymer_activities",
     "loopseries.polymer_activities", _count_activities),
    ("loopseries", "scan_correction", "loopseries.scan_correction",
     _count_subsets),
    ("graphs", "enumerate_polymers", "graphs.enumerate_polymers",
     _count_catalog),
    ("loopseries", "z_corr_polymer_form", "loopseries.z_corr_polymer_form",
     None),
    ("loopseries", "mayer_expansion", "loopseries.mayer_expansion",
     _count_mayer),
    ("loopseries", "convergence_criterion", "loopseries.convergence_criterion",
     None),
    ("bounds", "activity_bound_violations",
     "bounds.activity_bound_violations", None),
    ("loopseries", "build_expansion_report",
     "loopseries.build_expansion_report", None),
    ("loopseries", "ExpansionReport.save_json",
     "loopseries.ExpansionReport.save_json", None),
    ("cli", "main", "cli.main", None),
)


def cap_threads() -> dict:
    """Pin the numeric libraries to one thread; load comes from this process."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    return {var: os.environ[var] for var in THREAD_VARS}


def import_loopexp():
    """Import loopexp from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import loopexp
    if Path(loopexp.__file__).resolve().parent != (SRC / "loopexp").resolve():
        raise ImportError(f"loopexp imported from {loopexp.__file__}, "
                          f"not from {SRC}")
    import workloads
    return workloads


# ---------------------------------------------------------------- trials


def run_trial(workload, index, seed, work_dir, ref=None, tracer=None):
    """Run one trial; return its wall time (checks excluded) and problems."""
    from workloads import compare_reference, trial_seed
    # free the previous trial's reference cycles now, so that neither this
    # trial's time nor the peak RSS depends on when the collector last ran
    gc.collect()
    if tracer is not None:
        tracer.install()
    start = time.perf_counter()
    try:
        with tracer.root("bench.trial", index) if tracer else nullcontext():
            outcome = workload.run(index, trial_seed(seed, index), work_dir)
    except Exception as exc:  # a failed trial is data, not a crash
        return time.perf_counter() - start, [f"trial raised {exc!r}"]
    finally:
        if tracer is not None:
            tracer.uninstall()
    elapsed = time.perf_counter() - start
    try:
        values, problems = workload.inspect(outcome)
    except Exception as exc:
        return elapsed, [f"check raised {exc!r}"]
    if ref is not None:
        problems += compare_reference(values, ref[index])
    return elapsed, problems


def _trial_indices(workload, seconds, minimum):
    start = time.perf_counter()
    i = 0
    while i < minimum or time.perf_counter() - start < seconds:
        yield i, i % workload.set_size
        i += 1


def timed_phase(workload, seed, seconds, work_dir, ref, setup_s):
    """Untraced trials: the end-to-end metrics."""
    if installed_wrappers():
        raise RuntimeError(f"wrappers installed: {installed_wrappers()}")
    times, failures = [], []
    for _, idx in _trial_indices(workload, seconds, MIN_TRIALS):
        dt, problems = run_trial(workload, idx, seed, work_dir, ref)
        times.append(dt)
        if problems:
            failures.append((idx, problems))
    if installed_wrappers():
        raise RuntimeError(f"wrappers installed: {installed_wrappers()}")
    ok = len(times) - len(failures)
    metrics = {
        "trials_per_s": ok / sum(times),
        "trial_s.p50": statistics.median(times),
        "setup_s": setup_s,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": ok / len(times),
    }
    return metrics, len(times), failures, {"trial_s": times}


def traced_phase(workload, seed, seconds, work_dir, ref):
    """Pairs of untraced and traced runs of one instance: per-layer metrics."""
    tracer = Tracer(TARGETS)
    plain, traced, failures = [], [], []
    for i, idx in _trial_indices(workload, seconds, MIN_PAIRS):
        for use in ((None, tracer) if i % 2 else (tracer, None)):
            dt, problems = run_trial(workload, idx, seed, work_dir, ref, use)
            (traced if use else plain).append(dt)
            if problems:
                failures.append((idx, problems))
    n = len(traced)
    self_times = tracer.self_times()
    counts = tracer.counts
    metrics = {}
    for name in PER_LAYER:
        layer, _, kind = name.rpartition(".")
        if kind == "self_s":
            metrics[name] = self_times.get(layer, 0.0) / n
        else:
            metrics[name] = counts.get(name, 0) / n
    acts = counts.get("activities", 0)
    metrics["loopseries.nonzero_activity_frac"] = (
        counts.get("activities.nonzero", 0) / acts if acts else 0.0)
    metrics["trace.overhead_frac"] = sum(traced) / sum(plain) - 1.0
    total = tracer.root_time()
    extra = {
        "trial_s": plain,
        "traced_trial_s": traced,
        "layer_share": {k: v / total for k, v in sorted(self_times.items())},
        "missing_layers": tracer.missing,
    }
    return metrics, 2 * n, failures, extra


# ---------------------------------------------------------------- set-up


def setup_probes(workload_name, seed, count):
    """Set-up times of ``count`` fresh processes, run one after another."""
    out = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload_name, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=True)
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def warm_up(workload, seed, work_dir):
    """One untimed trial at the workload's small warm-up size."""
    _, problems = run_trial(workload.warm(), 0, seed, work_dir)
    if problems:
        raise RuntimeError(f"warm-up trial failed: {problems}")


def load_reference(workload, seed):
    if seed != DEFAULT_SEED:
        return None
    doc = json.loads(REFERENCE.read_text())
    entry = doc["workloads"][workload.name]
    if doc["seed"] != seed or len(entry["trials"]) != workload.set_size:
        raise ValueError(f"{REFERENCE.name} does not match {workload.name}")
    return entry["trials"]


def record(workload, seed, work_dir):
    """Values of every trial in the workload's set, for reference.json."""
    from workloads import trial_seed
    out = []
    for idx in range(workload.set_size):
        outcome = workload.run(idx, trial_seed(seed, idx), work_dir)
        values, problems = workload.inspect(outcome)
        if problems:
            raise RuntimeError(f"trial {idx} fails its checks: {problems}")
        out.append(values)
    return out


# ---------------------------------------------------------------- metadata


def metadata(args, threads):
    import numpy as np
    import scipy
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                              "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        top, head = (sha.stdout.split() + [None, None])[:2]
        sha = head if sha.returncode == 0 and Path(top) == ROOT else None
    except (OSError, subprocess.SubprocessError):
        sha = None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "default_seed": DEFAULT_SEED,
        "holdout_seed": HOLDOUT_SEED,
        "reference_checked": args.seed == DEFAULT_SEED,
        "trace": args.trace,
        "run_seconds": args.seconds,
        "git_sha": sha,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": threads,
    }


# ---------------------------------------------------------------- main


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "loopexp" / "__init__.py").is_file():
        print(f"bench: no loopexp package under {SRC}", file=sys.stderr)
        return 2
    threads = cap_threads()
    workloads = import_loopexp()
    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    work_dir = BENCH_DIR / f"_work-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        warm_up(workload, args.seed, work_dir)
        setup_here = time.perf_counter() - T0
        if args.setup_probe:
            print(repr(setup_here))
            return 0
        setup = [setup_here] + setup_probes(args.workload, args.seed,
                                            SETUP_SAMPLES - 1)
        ref = load_reference(workload, args.seed)
        if args.trace:
            metrics, attempted, failures, extra = traced_phase(
                workload, args.seed, args.seconds, work_dir, ref)
            units = PER_LAYER
        else:
            metrics, attempted, failures, extra = timed_phase(
                workload, args.seed, args.seconds, work_dir, ref,
                statistics.median(setup))
            units = END_TO_END
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    meta = metadata(args, threads)
    meta.update(trials=attempted, setup_s_samples=setup,
                failures=[f"trial {i}: {'; '.join(p)}"
                          for i, p in failures[:10]], **extra)
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
