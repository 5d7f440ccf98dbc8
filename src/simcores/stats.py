"""Exact statistics over order ideals, closed-form counts, and the
convolution recursions behind the average-size identity.

Everything here is arbitrary-precision integer arithmetic; no floats.
"""

from collections import namedtuple
from functools import lru_cache
from math import comb, gcd

from .posets import FamilyId, NonCoprimeError, abacus_runners, gap_count


def _path_totals(a: int, b: int) -> list[tuple[int, int, int, int]]:
    """Totals over the order ideals of the gap poset of (a, b), for each cap
    c = 0 .. t_1 on the first runner, in one pass along Anderson's lattice
    paths.

    An ideal is a height sequence on the runners of `abacus_runners(a, b)`,
    and the level i of a gap r_k + a*i is its layer p // a.  From the last
    runner down, for each height of the current runner the pass carries the
    moments (count, sum s, sum s^2, sum of labels, sum of layers) of the
    completions from it on, s being their number of members; prefix sums
    over the next runner's heights keep it linear in the number of gaps.
    Entry c is (ideal count, member sum, layer sum, size sum) over the
    ideals with h_1 <= c, an ideal of s members having size
    sum(labels) - C(s, 2); the last entry is the whole poset.  With a <= 1
    there are no runners: the one entry is the empty poset's one ideal.
    """
    runners = abacus_runners(a, b)
    t_next = runners[-1][0] if runners else 0
    # past the last runner, one empty completion follows every height
    prefix = [(1, 0, 0, 0, 0)] * (t_next + 1)
    for t, r in reversed(runners):
        offset = t_next - t   # height h is followed by heights <= h + offset
        nxt = []
        pc = p1 = p2 = pl = py = 0
        for h in range(t + 1):
            c, x1, x2, xl, xy = prefix[h + offset]
            y = h * (h - 1) // 2   # layer sum of the members 0 .. h - 1
            pc += c
            p1 += x1 + h * c
            p2 += x2 + (2 * x1 + h * c) * h
            pl += xl + (h * r + a * y) * c
            py += xy + y * c
            nxt.append((pc, p1, p2, pl, py))
        prefix, t_next = nxt, t
    return [(c, x1, xy, xl - (x2 - x1) // 2) for c, x1, x2, xl, xy in prefix]


class StatRecord(namedtuple("StatRecord", "family ideal_count member_sum "
                                         "layer_sum core_size_sum")):
    """Exact totals of the four statistics over every ideal of one poset:
    the number of order ideals, and over all of them the total number of
    members, the total of member layer indices and the total partition size
    under the beta-set bijection."""

    __slots__ = ()


# A few grids: each check reads its grid once; unbounded, every grid would stay.
@lru_cache(maxsize=8)
def compute_stats(m: int, n_max: int) -> tuple[StatRecord, ...]:
    """The four statistics of every family poset (m, j, n) with j < m and
    n <= n_max, ordered by (j, n), from n_max + 2 `_path_totals` passes.

    On the gap poset of (a, m*a + 1) runner k holds k*m gaps, and truncation
    j forces h_k >= j on each runner; h - j then meets the plain chain with
    runner 1 capped at m - j.  So pass a gives the plain poset of index a at
    cap m and truncation j of index a - 1 at cap m - j, each member j layers
    and a*j labels higher.
    """
    if m < 1 or n_max < 0:
        raise ValueError("need m >= 1 and n_max >= 0")
    passes = [_path_totals(a, m * a + 1) for a in range(n_max + 2)]
    records = []
    for j in range(m):
        for n in range(n_max + 1):
            family = FamilyId(m, j, n)
            a = family.layer_divisor
            totals = passes[a]   # a single entry, at every cap, for a <= 1
            c, t, r, g = totals[min(m - j, len(totals) - 1)]
            records.append(StatRecord(family, c, t, r + j * t, g + a * j * t))
    return tuple(records)


def core_count(a: int, b: int) -> int:
    """Number of simultaneous (a, b)-cores, by the closed binomial form."""
    if a < 0 or b < 0:
        raise ValueError("generators must be nonnegative")
    if gcd(a, b) != 1:
        raise NonCoprimeError(f"gcd({a}, {b}) != 1; infinitely many cores")
    q, rem = divmod(comb(a + b, a), a + b)
    if rem:
        raise ArithmeticError(f"binom({a + b}, {a}) is not divisible by {a + b}")
    return q


def is_slope_pair(a: int, b: int) -> bool:
    """True when {a, b} = {k, m*k + 1} for some k, m >= 1."""
    lo, hi = min(a, b), max(a, b)
    if lo < 1 or hi < 2:
        return False
    return lo == 1 or hi % lo == 1


class AverageSizeCheck(namedtuple("AverageSizeCheck", "a b count total matches")):
    """Count and total size of the (a, b)-cores (`count` hides `tuple.count`);
    `matches` is Armstrong's average (a-1)(b-1)(a+b+1)/24 multiplied out,
    the integer equation 24 * total == (a-1)(b-1)(a+b+1) * core_count(a, b)."""

    __slots__ = ()


def average_size_check(a: int, b: int) -> AverageSizeCheck:
    """Count and sum the sizes of all (a, b)-cores by the lattice-path
    transfer; check 24 * total == (a-1)(b-1)(a+b+1) * core_count(a, b)."""
    gap_count(a, b)   # raises on a non-positive or non-coprime pair
    count, _, _, total = _path_totals(a, b)[-1]
    rhs = (a - 1) * (b - 1) * (a + b + 1) * core_count(a, b)
    return AverageSizeCheck(a, b, count, total, 24 * total == rhs)


class RecursionCheck(namedtuple("RecursionCheck", "name m n lhs rhs passed")):
    """One exact integer equality between a statistic and a convolution."""

    __slots__ = ()


def verify_stat_recursions(m: int, n_max: int) -> list[RecursionCheck]:
    """Check the convolution recursions of the four statistics against
    the grid `compute_stats(m, n_max)`, which refuses an invalid grid.

    Index m is the gap poset of (n, m*n + 1) read as truncation m of that
    of (n + 1, m*(n + 1) + 1): its runner k is runner k + 1 there, and each
    member's layer rises by m and its label by 1 + m*(n + 1) + its plain
    layer.  So the "-top" rows are the step formulas at j = m - 1.
    For m = 1 only the count and member recursions survive the collapse;
    the layer and size recursions mix adjacent layers of the truncation and
    need m >= 2, so the degenerate report contains just those two families.
    """
    recs = {(rec.family.j, rec.family.n): rec[1:]
            for rec in compute_stats(m, n_max)}
    for n in range(n_max + 1):
        a, t, r, g = recs[0, n]
        recs[m, n] = a, t, r + m * t, g + r + (m * (n + 1) + 1) * t

    def A(j, n): return recs[j, n][0]
    def T(j, n): return recs[j, n][1]
    def R(j, n): return recs[j, n][2]
    def G(j, n): return recs[j, n][3]

    checks = []

    def add(name, n, lhs, rhs):
        checks.append(RecursionCheck(name, m, n, lhs, rhs, lhs == rhs))

    def step(stat, j):
        return f"{stat}-top" if j == m - 1 else f"{stat}-step[j={j}]"

    for n in range(n_max + 1):
        add("count-join", n, A(0, n),
            (1 if n == 0 else 0) + sum(A(1, i) * A(0, n - i - 1) for i in range(n)))
        for j in range(1, m):
            add(f"count-step[j={j}]", n, A(j, n),
                sum(A(j + 1, i) * A(0, n - i) for i in range(n + 1)))
        add("member-join", n, T(0, n),
            sum(T(1, i) * A(0, n - i - 1) + i * A(1, i) * A(0, n - i - 1)
                + A(1, i) * T(0, n - i - 1) for i in range(n)))
        for j in range(1, m):
            add(step("member", j), n, T(j, n),
                sum(T(j + 1, i) * A(0, n - i) + i * A(j + 1, i) * A(0, n - i)
                    + A(j + 1, i) * T(0, n - i) for i in range(n + 1)))
        if m < 2:
            continue
        add("layer-join", n, R(0, n),
            sum(A(0, n - i - 1) * R(1, i) + A(1, i) * R(0, n - i - 1)
                for i in range(n)))
        for j in range(1, m):
            add(step("layer", j), n, R(j, n),
                sum(A(0, n - i) * R(j + 1, i) + i * j * A(j + 1, i) * A(0, n - i)
                    + A(j + 1, i) * (R(0, n - i) + j * T(0, n - i))
                    for i in range(n + 1)))
        add("size-join", n, G(0, n),
            sum(A(0, n - i - 1) * (G(1, i) + (n - i - 1) * R(1, i) - i * T(1, i))
                + A(1, i) * (G(0, n - i - 1) + (i + 1) * R(0, n - i - 1)
                             + T(0, n - i - 1))
                + i * A(1, i) * A(0, n - i - 1)
                - T(1, i) * T(0, n - i - 1)
                for i in range(n)))
        for j in range(1, m):
            add(step("size", j), n, G(j, n),
                sum(A(0, n - i) * (G(j + 1, i) + (n - i) * R(j + 1, i)
                                   - i * T(j + 1, i))
                    + A(j + 1, i) * (G(0, n - i) + (i + 1) * R(0, n - i)
                                     + (j * (n + 1) + 1) * T(0, n - i))
                    + (j * (n + 1) + 1) * i * A(j + 1, i) * A(0, n - i)
                    - T(j + 1, i) * T(0, n - i)
                    for i in range(n + 1)))
    return checks
