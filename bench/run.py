"""simcores benchmark: seeded lists of cold `simcores` CLI jobs.

    python3 bench/run.py --workload cores_listing --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; the program is imported from
`src/` and nothing is installed.  Workloads are defined in `workloads.py`.

With `--trace 0` every job runs in a fresh `python -m simcores.cli`
process, one at a time from this single runner: a closed loop with one
client.  Each process starts with cold caches, as a user's does.  Passes
over the seed's job list repeat, each in a new seeded order, until
`--seconds` have passed (the first pass always completes).  The runner runs
the fixed reference job `calibrate.py` first and after every job, and a
no-work probe (`simcores --help`: interpreter start, import, parser) after
every reference run.

The host is shared and its speed drifts by a quarter within minutes, so
times are reported in reference seconds: a job's time divided by the mean
of the two reference runs around it (a probe's: by the one before it),
times CAL_REF_S.  A change to simcores moves them as it moves wall time;
the drift of the host mostly cancels.  Reported:

  wall_s        wall time of the job list: the sum over its jobs of each
                job's median time in this run, in reference seconds
  setup_s       median probe time, in reference seconds
  peak_rss_mb   largest child max-RSS, from os.wait4
  success_rate  invocations whose exit code and stdout SHA-256 match the
                recorded baseline, over invocations attempted

Raw times, their quartiles and sample counts, and error_rate are printed
above the result.  With `--trace 1` the job list runs once in this process
through `simcores.cli.main` with per-layer tracing; see `layertrace.py`.

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`.  The exit code is 0 when every output matched, 1
when one did not, and 2 when the program or the baseline cannot be found.
"""

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BASELINE = Path(__file__).with_name("baseline.json")
CALIBRATION = Path(__file__).with_name("calibrate.py")
SPAWNER = Path(__file__).with_name("spawner.py")
# About the reference job's median time on the 2-CPU host where the
# baseline was recorded; it only sets the scale of reference seconds.
CAL_REF_S = 0.25


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["COLUMNS"] = "80"  # argparse wraps --help to the terminal width
    return env


class Spawner:
    """Client of `spawner.py`, which starts and times every child process."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, "-S", str(SPAWNER)], cwd=ROOT, env=child_env(),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, command) -> dict:
        """seconds, max_rss_mb, exit, sha256 and bytes of one process."""
        self.proc.stdin.write(json.dumps([str(c) for c in command]) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            fail("the spawner stopped")
        return json.loads(line)

    def cli(self, argv) -> dict:
        return self.run([sys.executable, "-m", "simcores.cli", *argv])

    def calibrate(self) -> float:
        ref = self.run([sys.executable, CALIBRATION])
        if ref["exit"] != 0:
            fail(f"the reference job exited {ref['exit']}")
        return ref["seconds"]

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()  # the spawner exits at end of input
        self.proc.stdout.close()
        try:
            self.proc.wait(timeout=workloads.JOB_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


class Gate:
    """Exit code and stdout digest of every job, against the baseline."""

    def __init__(self, baseline: dict):
        self.baseline = baseline
        self.attempted = 0
        self.mismatches = []

    def check(self, argv, outcome: dict):
        """`outcome` holds at least exit, sha256 and bytes."""
        self.attempted += 1
        want = self.baseline.get(workloads.job_key(argv))
        if want != {k: outcome[k] for k in ("exit", "sha256", "bytes")}:
            self.mismatches.append(workloads.job_key(argv))

    @property
    def failed(self) -> int:
        return len(self.mismatches)


def fail(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def require_program():
    if not (SRC / "simcores" / "cli.py").is_file():
        fail(f"no simcores sources under {SRC}")
    if not BASELINE.is_file():
        fail(f"no correctness baseline at {BASELINE}")
    return json.loads(BASELINE.read_text())


def warm_bytecode():
    """Compile the sources once, so no timed process pays for it."""
    done = subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC)],
                          stdout=subprocess.DEVNULL)
    if done.returncode != 0:
        fail("the simcores sources do not compile")


def describe(name, values, scale=1.0):
    values = [v * scale for v in values]
    q1, q2, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                  else values * 3)
    print(f"{name}: n={len(values)}, quartiles {q1:.4g} / {q2:.4g} / {q3:.4g} s")


def run_end_to_end(jobs, rng, seconds, gate):
    times = [[] for _ in jobs]     # raw seconds per job
    relative = [[] for _ in jobs]  # the same, over the reference job's time
    probes, probe_relative, refs = [], [], []
    peak_rss = 0.0
    with Spawner() as spawner:
        clock = time.perf_counter
        deadline = clock() + seconds
        passes = 0
        ref = spawner.calibrate()
        while True:
            order = list(range(len(jobs)))
            rng.shuffle(order)
            for i in order:
                if passes and clock() >= deadline:
                    break
                job = spawner.cli(jobs[i])
                gate.check(jobs[i], job)
                peak_rss = max(peak_rss, job["max_rss_mb"])
                ref_before, ref = ref, spawner.calibrate()
                probe = spawner.cli(workloads.SETUP_PROBE)
                gate.check(workloads.SETUP_PROBE, probe)
                times[i].append(job["seconds"])
                # The reference runs bracket the job.
                relative[i].append(job["seconds"] * 2 / (ref_before + ref))
                refs.append(ref)
                probes.append(probe["seconds"])
                probe_relative.append(probe["seconds"] / ref)
            passes += 1
            if clock() >= deadline:
                break
    samples = [len(t) for t in times]
    print(f"passes: {passes}; samples per job: {min(samples)}-{max(samples)}")
    describe("reference job", refs)
    describe("setup probe (raw)", probes)
    describe("setup probe (reference seconds)", probe_relative, CAL_REF_S)
    print(f"raw wall_s = {sum(statistics.median(t) for t in times):.6g} s")
    print(f"raw setup_s = {statistics.median(probes):.6g} s")
    error_rate = gate.failed / gate.attempted
    print(f"error_rate = {error_rate:.4f} share "
          f"({gate.failed} of {gate.attempted} invocations)")
    return {
        "wall_s": (CAL_REF_S * sum(statistics.median(r) for r in relative), "s"),
        "setup_s": (CAL_REF_S * statistics.median(probe_relative), "s"),
        "peak_rss_mb": (peak_rss, "MB"),
        "success_rate": (1 - error_rate, "share"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    gate = Gate(require_program())
    warm_bytecode()
    rng = random.Random(f"{args.workload}:{args.seed}")
    jobs = workloads.job_list(args.workload, rng)
    print(f"workload {args.workload}, seed {args.seed}: {len(jobs)} jobs, "
          f"Python {sys.version.split()[0]}, {os.cpu_count()} CPUs")
    if args.trace:
        import layertrace
        metrics, deterministic = layertrace.run_traced(
            jobs, gate, SRC, ROOT / ".bench_out",
            f"trace-{args.workload}-seed{args.seed}")
    else:
        metrics = run_end_to_end(jobs, rng, args.seconds, gate)
        deterministic = True
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    for key in gate.mismatches[:10]:
        print(f"MISMATCH: simcores {key}")
    correct = gate.failed == 0 and deterministic
    print(json.dumps({
        "correct": correct,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
