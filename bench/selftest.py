"""Smoke self-test of the benchmark at tiny sizes.

    python3 bench/selftest.py

For every workload, shrunk to its warm-up size, it checks that the timed run
emits every end-to-end metric of BENCHMARK.json with its unit and the traced
run every per-layer metric, that no tracer wrapper outlives the traced run and
that the timed run refuses to start with one installed, and that a corrupted
reference value is counted as a failed trial.  Exits 0 when all hold.
"""

import contextlib
import copy
import dataclasses
import io
import json
import os
import shutil
import sys

import run

SEED = 3


def emitted(workload_name: str, trace: int) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(["--workload", workload_name, "--seed", str(SEED),
                         "--seconds", "0", "--trace", str(trace)])
    if code != 0:
        raise RuntimeError(f"{workload_name} --trace {trace} exited {code}")
    return json.loads(buf.getvalue().splitlines()[-1])


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    want = {trace: {m["name"]: m["unit"] for m in spec[key]}
            for trace, key in ((0, "end_to_end"), (1, "per_layer"))}
    run.cap_threads()
    workloads = run.import_loopexp()

    originals = dict(workloads.WORKLOADS)
    work_dir = run.BENCH_DIR / f"_work-selftest-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    errors = []
    try:
        for name, full in originals.items():
            tiny = dataclasses.replace(full.warm(), set_size=2)
            workloads.WORKLOADS[name] = tiny
            for trace in (0, 1):
                result = emitted(name, trace)
                units = {k: v["unit"] for k, v in result["metrics"].items()}
                if units != want[trace]:
                    errors.append(f"{name} --trace {trace}: metrics {units}")
                if not result["correct"] or result["failed"]:
                    errors.append(f"{name} --trace {trace}: {result}")
            if run.installed_wrappers():
                errors.append(f"{name}: wrappers left "
                              f"{run.installed_wrappers()}")

            tracer = run.Tracer(run.TARGETS)
            tracer.install()
            try:
                run.timed_phase(tiny, SEED, 0, work_dir, None, 0.0)
                errors.append(f"{name}: timed run accepted a wrapper")
            except RuntimeError:
                pass
            finally:
                tracer.uninstall()

            ref = run.record(tiny, SEED, work_dir)
            _, _, failures, _ = run.timed_phase(tiny, SEED, 0, work_dir, ref,
                                                0.0)
            if failures:
                errors.append(f"{name}: fails its own reference {failures}")
            bad = copy.deepcopy(ref)
            bad[0]["bethe_total"] *= 1.0 + 1e-6
            metrics, _, failures, _ = run.timed_phase(tiny, SEED, 0, work_dir,
                                                      bad, 0.0)
            if not failures or metrics["ok_frac"] >= 1.0:
                errors.append(f"{name}: corrupted reference not counted")
    finally:
        workloads.WORKLOADS.update(originals)
        shutil.rmtree(work_dir, ignore_errors=True)
    for err in errors:
        print(f"selftest: {err}", file=sys.stderr)
    print("selftest: " + ("FAILED" if errors else "ok"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
