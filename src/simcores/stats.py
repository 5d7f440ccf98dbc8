"""Exact statistics over order ideals, closed-form counts, and the
convolution recursions behind the average-size identity.

Everything here is arbitrary-precision integer arithmetic; no floats.
"""

from collections import namedtuple
from functools import lru_cache
from math import comb, gcd

from .posets import NonCoprimeError, abacus_runners, gap_count


def _path_totals(a: int, b: int) -> list[tuple[int, int, int, int]]:
    """Totals over the order ideals of the gap poset of (a, b), for each cap
    c = 0 .. t_k on the first nonempty runner k, in one pass along
    Anderson's lattice paths.

    An ideal is a height sequence on the runners of `abacus_runners(a, b)`,
    and the level i of a gap r_k + a*i is its layer p // a.  From the last
    runner down, for each height of the current runner the pass carries the
    totals (count, members, layers, sizes) of the completions from it on;
    prefix sums over the next runner's heights keep it linear in the number
    of gaps.  Height h on runner k adds h members of layer sum y = C(h, 2)
    and raises the size sum(labels) - C(s, 2) of a completion of s members
    by h*r_k + (a - 1)*y - h*s.  Entry c holds these totals over the ideals
    with h_k <= c; the last entry is the whole poset.  With no gaps there
    are no runners: the one entry is the empty poset's one ideal.
    """
    runners = abacus_runners(a, b)
    t_next = runners[-1][0] if runners else 0
    # past the last runner, one empty completion follows every height
    prefix = [(1, 0, 0, 0)] * (t_next + 1)
    for t, r in reversed(runners):
        offset = t_next - t   # height h is followed by heights <= h + offset
        nxt = []
        pc = pm = pl = ps = 0
        for h in range(t + 1):
            c, xm, xl, xs = prefix[h + offset]
            y = h * (h - 1) // 2   # layer sum of the members 0 .. h - 1
            pc += c
            pm += xm + h * c
            pl += xl + y * c
            ps += xs + (h * r + (a - 1) * y) * c - h * xm
            nxt.append((pc, pm, pl, ps))
        prefix, t_next = nxt, t
    return prefix


class StatRecord(namedtuple("StatRecord", "m j n ideal_count member_sum "
                                         "layer_sum core_size_sum")):
    """Exact totals of the four statistics over every ideal of the family
    poset (m, j, n): the number of order ideals, and over all of them the
    total number of members, the total of member layer indices and the
    total partition size under the beta-set bijection."""

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
            a = n + 1 if j else n   # the poset's index, its layer divisor
            totals = passes[a]   # a single entry, at every cap, for a <= 1
            c, t, r, g = totals[min(m - j, len(totals) - 1)]
            records.append(StatRecord(m, j, n, c, t, r + j * t, g + a * j * t))
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


def as_truncation_m(m, a, t, r, g):
    """The four series of the plain poset, the gap poset of (n, m*n + 1),
    read as truncation m of that of (n + 1, m*(n + 1) + 1): runner k becomes
    runner k + 1, each layer rises by m and each label by 1 + m*(n + 1) +
    its plain layer."""
    return a, t, r + m * t, g + r + (m + 1) * t + m * t.theta()


def recursion_rhs(stat, j, A, T, R, G):
    """The right side of the recursion of `stat` (count, member, layer or
    size) at truncation j, as a series.  A, T, R and G map each truncation
    j = 0 .. m - 1 to its series; the top step, j = m - 1, reads the plain
    poset as truncation m, `as_truncation_m` of index 0.  The join, j = 0,
    is x times the step form at j = 0, plus 1 for the count.
    """
    a0, t0, r0, g0 = A[0], T[0], R[0], G[0]
    a, t, r, g = (as_truncation_m(len(A), a0, t0, r0, g0) if j == len(A) - 1
                  else (A[j + 1], T[j + 1], R[j + 1], G[j + 1]))
    if stat == "count":
        rhs = a * a0
    elif stat == "member":
        rhs = (t + a.theta()) * a0 + a * t0
    elif stat == "layer":
        rhs = a0 * r + j * a.theta() * a0 + a * (r0 + j * t0)
    else:
        # every label of truncation j + 1 rises by j(n + 1) + 1 in truncation j
        c = a * t0 + a.theta() * a0
        rhs = (a0 * g + a0.theta() * r - a0 * t.theta()
               + a * (g0 + r0) + a.theta() * r0
               + j * c.theta() + (j + 1) * c - t * t0)
    return rhs if j else rhs.shift(1) + (1 if stat == "count" else 0)


def verify_stat_recursions(m: int, n_max: int) -> list[RecursionCheck]:
    """Check the convolution recursions of the four statistics against the
    grid `compute_stats(m, n_max)`, which refuses an invalid grid: row
    (name, n) compares coefficient n of a statistic's series with that of its
    `recursion_rhs`.  The "-top" rows are the step formulas at j = m - 1,
    read off the plain poset as truncation m.  At m = 1 only the count and
    member recursions are reported.  The layer and size joins hold there too,
    and `stat_series` solves R[0] and G[0] from them; they are left out of
    the m = 1 report only to keep the pinned bytes of `recursions --m 1`.
    """
    grid = compute_stats(m, n_max)
    from .series import series   # series imports this module
    w = n_max + 1
    # each statistic's grid column, as one series per truncation j < m
    maps = [[series(c[k:k + w]) for k in range(0, m * w, w)]
            for c in list(zip(*grid))[3:]]
    sides = []
    for stat, S in zip(("count", "member", "layer", "size"),
                       maps if m > 1 else maps[:2]):
        for j in range(m):
            name = (f"{stat}-join" if j == 0 else
                    f"{stat}-top" if j == m - 1 and stat != "count" else
                    f"{stat}-step[j={j}]")
            sides.append((name, S[j], recursion_rhs(stat, j, *maps)))
    return [RecursionCheck(name, m, n, lhs[n], rhs[n], lhs[n] == rhs[n])
            for n in range(w) for name, lhs, rhs in sides]
