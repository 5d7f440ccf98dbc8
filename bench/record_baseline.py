"""Record the correctness gate: exit code and stdout digest of every pool job.

    python3 bench/record_baseline.py

Run from the root of a source checkout.  Writes `bench/baseline.json`,
which `run.py` compares every job against.  CLI stdout must stay
byte-identical across optimisations, so this is re-recorded only when an
output is meant to change.
"""

import json
import sys

import run
import workloads


def main() -> int:
    run.warm_bytecode()
    jobs = [list(workloads.SETUP_PROBE)]
    for name in workloads.WORKLOADS:
        jobs.extend(workloads.pool(name))
    baseline = {}
    with run.Spawner() as spawner:
        for argv in jobs:
            job = spawner.cli(argv)
            baseline[workloads.job_key(argv)] = {
                k: job[k] for k in ("exit", "sha256", "bytes")}
            print(f"{job['exit']} {job['seconds']:7.3f} s  "
                  f"simcores {workloads.job_key(argv)}")
    failing = [key for key, want in baseline.items() if want["exit"] != 0]
    if failing:
        print(f"error: pool jobs must pass, these exit non-zero: {failing}",
              file=sys.stderr)
        return 1
    run.BASELINE.write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")
    print(f"{len(baseline)} jobs written to {run.BASELINE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
