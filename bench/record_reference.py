"""Record reference.json: every trial's values at the default seed.

    python3 bench/record_reference.py

The benchmark compares each trial at the default seed with these values, so a
change that computes different numbers counts as a failed trial.  Record them
again only when a change is meant to alter the numbers, and say why.
"""

import json
import os
import shutil
import sys

import run


def main() -> int:
    run.cap_threads()
    workloads = run.import_loopexp()
    work_dir = run.BENCH_DIR / f"_work-record-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        doc = {"seed": run.DEFAULT_SEED, "workloads": {}}
        for name, workload in workloads.WORKLOADS.items():
            print(f"recording {name} ({workload.set_size} trials)",
                  file=sys.stderr)
            doc["workloads"][name] = {
                "trials": run.record(workload, run.DEFAULT_SEED, work_dir)}
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    run.REFERENCE.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
