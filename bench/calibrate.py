"""Fixed reference job for machine-speed normalisation; imports nothing of simcores.

    python3 bench/calibrate.py

About 0.25 s: interpreter start, then three equal parts, one like the hot
path of each workload: building, sorting and printing tuples as JSON; a
depth-first walk over the order ideals of a bitmask poset; and products of
truncated `Fraction` series.  `run.py` runs it around every timed job and
divides the job's time by it, which cancels most of the drift in speed of a
shared host.  It must never change: every baseline is measured in its units.
"""

import json
import sys
from fractions import Fraction


def listing() -> int:
    rows = [tuple(range(i % 7, i % 7 + i % 13)) for i in range(7000)]
    rows.sort(key=lambda p: (sum(p), tuple(-q for q in p)))
    return len(json.dumps([list(p) for p in rows], indent=2))


def enumeration() -> int:
    """Total size of the 9**5 ideals of five disjoint 8-element chains."""
    chains, length = 5, 8
    k = chains * length
    need = [1 << (i - chains) if i >= chains else 0 for i in range(k)]
    total = 0

    def grow(start, acc):
        nonlocal total
        total += acc.bit_count()
        for i in range(start, k):
            if acc & need[i] == need[i]:
                grow(i + 1, acc | (1 << i))

    grow(0, 0)
    return total


def series() -> int:
    n = 24
    a = [Fraction(1, k + 1) for k in range(n + 1)]
    b = [Fraction(k + 1, 2 * k + 3) for k in range(n + 1)]
    for _ in range(50):
        out = [Fraction(0)] * (n + 1)
        for i in range(n + 1):
            for j in range(n + 1 - i):
                out[i + j] += a[i] * b[j]
    return max(c.denominator.bit_length() for c in out)


def main() -> int:
    print(listing(), enumeration(), series())
    return 0


if __name__ == "__main__":
    sys.exit(main())
