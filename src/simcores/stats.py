"""Exact statistics over order ideals, closed-form counts, and the
convolution recursions behind the average-size identity.

Everything here is arbitrary-precision integer arithmetic; no floats.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd

from .posets import FamilyId, NonCoprimeError, abacus_runners, gap_count


class EnumerationTooLargeError(RuntimeError):
    """A CLI job over its guard, a closed form of the command's arguments."""


def _path_totals(a: int, b: int, j: int = 0) -> tuple[int, int, int, int]:
    """Totals over the order ideals of the gap poset of (a, b) with its
    bottom j layers removed, in one pass along Anderson's lattice paths.

    An ideal is a height sequence on the runners of `abacus_runners(a, b)`,
    and the level i of a gap r_k + a*i is its layer p // a.  The bottom j
    layers form a down-set, so the ideals of the truncation are the ideals
    containing it: h_k >= min(j, t_k), and only members at levels >= j count.

    For each height of the current runner the pass carries the moments
    (count, sum s, sum s^2, sum of labels, sum of layers) of the paths
    ending there, s being their number of members; suffix sums over the
    previous runner's heights keep it linear in the number of gaps.
    Returns (ideal count, member sum, layer sum, size sum), an ideal of s
    members having size sum(labels) - C(s, 2).  With a <= 1 there are no
    runners: the empty poset has one ideal.
    """
    cnt, s1, s2, lab, lay = [1], [0], [0], [0], [0]   # runner 0: height 0
    prev_t = prev_lo = 0
    for t, r in abacus_runners(a, b):
        lo = min(j, t)
        for v in (cnt, s1, s2, lab, lay):
            for i in range(len(v) - 2, -1, -1):
                v[i] += v[i + 1]
        # height h follows the previous heights >= h - (t - prev_t)
        offset = t - prev_t + prev_lo
        nxt = [], [], [], [], []
        for h in range(lo, t + 1):
            i = max(h - offset, 0)
            c, x1, x2, xl, xy = cnt[i], s1[i], s2[i], lab[i], lay[i]
            s = max(h - j, 0)          # members at levels j .. h - 1
            y = s * (j + h - 1) // 2   # their layer sum
            nxt[0].append(c)
            nxt[1].append(x1 + s * c)
            nxt[2].append(x2 + (2 * x1 + s * c) * s)
            nxt[3].append(xl + (s * r + a * y) * c)
            nxt[4].append(xy + y * c)
        cnt, s1, s2, lab, lay = nxt
        prev_t, prev_lo = t, lo
    members = sum(s1)
    return (sum(cnt), members, sum(lay),
            sum(lab) - (sum(s2) - members) // 2)


@dataclass(frozen=True)
class StatRecord:
    """Exact totals of the four statistics over every ideal of one poset."""

    family: FamilyId
    ideal_count: int     # number of order ideals
    member_sum: int      # total number of members over all ideals
    layer_sum: int       # total of member layer indices over all ideals
    core_size_sum: int   # total partition size under the beta-set bijection


@lru_cache(maxsize=None)
def compute_stats(family: FamilyId) -> StatRecord:
    """The four statistics of the poset named by `family`, by `_path_totals`
    on the gap poset of (a, m*a + 1), a being the family's layer divisor."""
    m, j, a = family.m, family.j, family.layer_divisor
    return StatRecord(family, *_path_totals(a, m * a + 1, j))


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


@dataclass(frozen=True)
class AverageSizeCheck:
    """Total and average core size against the closed-form prediction."""

    a: int
    b: int
    count: int
    total: int
    rhs: Fraction
    average: Fraction
    matches: bool


def average_size_check(a: int, b: int) -> AverageSizeCheck:
    """Sum the sizes of all (a, b)-cores by the lattice-path transfer and
    compare with Armstrong's (a-1)(b-1)(a+b+1)/24 * core_count(a, b)."""
    gap_count(a, b)   # raises on a non-positive or non-coprime pair
    count, _, _, total = _path_totals(a, b)
    rhs = Fraction((a - 1) * (b - 1) * (a + b + 1), 24) * core_count(a, b)
    return AverageSizeCheck(a, b, count, total, rhs,
                            Fraction(total, count), total == rhs)


@dataclass(frozen=True)
class RecursionCheck:
    """One exact integer equality between a statistic and a convolution."""

    name: str
    m: int
    n: int
    lhs: int
    rhs: int
    passed: bool


def verify_stat_recursions(m: int, n_max: int) -> list[RecursionCheck]:
    """Check the convolution recursions of the four statistics against
    the totals of `compute_stats`, for all n <= n_max.

    Index m is the gap poset of (n, m*n + 1) read as truncation m of that
    of (n + 1, m*(n + 1) + 1): its runner k is runner k + 1 there, and each
    member's layer rises by m and its label by 1 + m*(n + 1) + its plain
    layer.  So the "-top" rows are the step formulas at j = m - 1.
    For m = 1 only the count and member recursions survive the collapse;
    the layer and size recursions mix adjacent layers of the truncation and
    need m >= 2, so the degenerate report contains just those two families.
    """
    if m < 1 or n_max < 0:
        raise ValueError("need m >= 1 and n_max >= 0")
    recs = {}
    for j in range(m):
        for n in range(n_max + 1):
            s = compute_stats(FamilyId(m, j, n))
            recs[j, n] = s.ideal_count, s.member_sum, s.layer_sum, s.core_size_sum
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
