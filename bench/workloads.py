"""Job pools of the simcores benchmark and the seeded job lists drawn from them.

A job is the argv of one `simcores` CLI invocation.  Each workload has a
fixed pool; a seed fixes the job list (the formats left open in the pool)
and the order of every pass over it.  Every seed lists the same amount of
work, so the run-to-run spread of a metric is the machine's, not the draw's.
"""

import random

FORMATS = ("plain", "json", "csv")
# A job is killed after this long, so a hung program cannot stall the run.
JOB_TIMEOUT_S = 120

# The only path that materialises, decodes, sorts and prints every ideal.
# These are the 14 coprime pairs whose gap poset has 45-60 elements and at
# least 15,000 cores, ranked by core count.  Output is 0.6-21 MB per job and
# its format moves peak memory by up to 2.4x, so the format is fixed per pair
# (rotating by rank) instead of drawn: the largest pair always lists in JSON.
CORES_PAIRS = ((6, 23, "plain"), (10, 11, "json"), (7, 18, "csv"),
               (8, 15, "plain"), (9, 13, "json"), (6, 25, "csv"),
               (7, 19, "plain"), (7, 20, "json"), (9, 14, "csv"),
               (8, 17, "plain"), (10, 13, "json"), (11, 12, "csv"),
               (9, 16, "plain"), (11, 13, "json"))

# Totals only, over many small truncated posets: stats, recursions and
# cross-check for m = 1..6, each at the largest --max-n inside the
# 60-element guard, plus one 72-element stats grid past the guard so that
# enumeration, not interpreter start-up, dominates.  Series work is low order.
FAMILY_MAX_N = {1: 11, 2: 7, 3: 6, 4: 5, 5: 4, 6: 4}
FAMILY_JOBS = tuple(
    (cmd, "--m", str(m), "--max-n", str(n))
    for m, n in FAMILY_MAX_N.items()
    for cmd in ("stats", "recursions", "cross-check")
) + (("stats", "--m", "2", "--max-n", "8", "--unsafe-limits"),)

# The pure Fraction series kernel: the identity ledger at order 24 for every
# slope, and at order 40 for m = 3 and 6.  No poset is built here.
LEDGER_JOBS = tuple(
    ("series-verify", "--m", str(m), "--order", "24") for m in range(1, 7)
) + tuple(
    ("series-verify", "--m", str(m), "--order", "40", "--unsafe-limits")
    for m in (3, 6)
)

# The no-work invocation: interpreter start, import simcores.cli, build the
# parser.  Its median is the benchmark's set-up time.
SETUP_PROBE = ("--help",)


def _cores_pool():
    return [("cores", "--a", str(a), "--b", str(b), "--format", fmt)
            for a, b, fmt in CORES_PAIRS]


def _with_formats(jobs):
    return [job + ("--format", fmt) for job in jobs for fmt in FORMATS]


def pool(workload):
    """Every job the workload can list, for recording the correctness gate."""
    if workload == "cores_listing":
        return _cores_pool()
    if workload == "family_grid":
        return _with_formats(FAMILY_JOBS)
    if workload == "ledger":
        return _with_formats(LEDGER_JOBS)
    raise KeyError(workload)


WORKLOADS = ("cores_listing", "family_grid", "ledger")


def job_list(workload, rng: random.Random):
    """The seed's job list: each pool entry once, small-output jobs with a
    drawn --format."""
    if workload == "cores_listing":
        return _cores_pool()
    base = FAMILY_JOBS if workload == "family_grid" else LEDGER_JOBS
    return [job + ("--format", rng.choice(FORMATS)) for job in base]


def job_key(argv) -> str:
    return " ".join(argv)
