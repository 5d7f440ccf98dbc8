"""Exact statistics over order ideals, closed-form counts, and the
convolution recursions behind the average-size identity.

Everything here is arbitrary-precision integer arithmetic; no floats.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd

from .posets import (FamilyId, NonCoprimeError, _ideal_masks, family_poset,
                     gap_poset)

DEFAULT_MAX_POSET_SIZE = 60


class EnumerationTooLargeError(RuntimeError):
    """The poset exceeds the configured enumeration guard."""


def _guard(size: int, limit: int | None, what: str) -> None:
    """Raise when `size` exceeds `limit`; a limit of None lifts the guard."""
    if limit is not None and size > limit:
        raise EnumerationTooLargeError(
            f"{what} is {size}, above the guard of {limit}")


def _ideal_totals(poset) -> tuple[int, list[int], int]:
    """One pass over every order ideal of `poset`.

    Returns the ideal count, how many ideals contain each element (by
    element index), and the total core size, which is the sum over ideals
    of `sum(members) - C(r, 2)` for an ideal of r members.
    """
    occupancy = [0] * len(poset)
    count = pairs = 0
    for mask in _ideal_masks(poset):
        r = mask.bit_count()
        count += 1
        pairs += r * (r - 1) // 2
        # walked inline: a generator per mask would cost more than the body
        while mask:
            low = mask & -mask
            occupancy[low.bit_length() - 1] += 1
            mask ^= low
    size_total = sum(k * e for k, e in zip(occupancy, poset.elements)) - pairs
    return count, occupancy, size_total


@dataclass(frozen=True)
class StatRecord:
    """Exact totals of the four statistics over every ideal of one poset."""

    family: FamilyId
    ideal_count: int     # number of order ideals
    member_sum: int      # total number of members over all ideals
    layer_sum: int       # total of member layer indices over all ideals
    core_size_sum: int   # total partition size under the beta-set bijection


@lru_cache(maxsize=None)
def compute_stats(family: FamilyId,
                  max_poset_size: int | None = DEFAULT_MAX_POSET_SIZE) -> StatRecord:
    """Brute-force the four statistics of the poset named by `family`."""
    poset = family_poset(family)
    _guard(len(poset), max_poset_size, f"the size of poset {family}")
    count, occupancy, size_total = _ideal_totals(poset)
    div = family.layer_divisor
    layer_total = sum(k * (e // div) for k, e in zip(occupancy, poset.elements))
    return StatRecord(family, count, sum(occupancy), layer_total, size_total)


def core_count(a: int, b: int) -> int:
    """Number of simultaneous (a, b)-cores, by the closed binomial form."""
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


def average_size_check(a: int, b: int,
                       max_poset_size: int | None = DEFAULT_MAX_POSET_SIZE) -> AverageSizeCheck:
    """Sum the sizes of all (a, b)-cores and compare with
    (a-1)(b-1)(a+b+1)/(24(a+b)) * binom(a+b, a), exactly."""
    poset = gap_poset(a, b)
    _guard(len(poset), max_poset_size, f"the size of the gap poset of ({a}, {b})")
    count, _, total = _ideal_totals(poset)
    rhs = Fraction((a - 1) * (b - 1) * (a + b + 1), 24 * (a + b)) * comb(a + b, a)
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


def verify_stat_recursions(m: int, n_max: int,
                           max_poset_size: int | None = DEFAULT_MAX_POSET_SIZE
                           ) -> list[RecursionCheck]:
    """Check the convolution recursions of the four statistics against
    brute-force values, for all n <= n_max.

    Superscripts wrap modulo m, so index m means the plain posets again.
    For m = 1 only the count and member recursions survive the collapse;
    the layer and size recursions mix adjacent layers of the truncation and
    need m >= 2, so the degenerate report contains just those two families.
    """
    recs = {}
    for j in range(m):
        for n in range(n_max + 1):
            recs[(j, n)] = compute_stats(FamilyId(m, j, n), max_poset_size)

    def A(j, n): return recs[(j % m, n)].ideal_count
    def T(j, n): return recs[(j % m, n)].member_sum
    def R(j, n): return recs[(j % m, n)].layer_sum
    def G(j, n): return recs[(j % m, n)].core_size_sum

    checks = []

    def add(name, n, lhs, rhs):
        checks.append(RecursionCheck(name, m, n, lhs, rhs, lhs == rhs))

    for n in range(n_max + 1):
        add("count-join", n, A(0, n),
            (1 if n == 0 else 0) + sum(A(1, i) * A(0, n - i - 1) for i in range(n)))
        for j in range(1, m):
            add(f"count-step[j={j}]", n, A(j, n),
                sum(A(j + 1, i) * A(0, n - i) for i in range(n + 1)))
        add("member-join", n, T(0, n),
            sum(T(1, i) * A(0, n - i - 1) + i * A(1, i) * A(0, n - i - 1)
                + A(1, i) * T(0, n - i - 1) for i in range(n)))
        if m < 2:
            continue
        for j in range(1, m - 1):
            add(f"member-step[j={j}]", n, T(j, n),
                sum(T(j + 1, i) * A(0, n - i) + i * A(j + 1, i) * A(0, n - i)
                    + A(j + 1, i) * T(0, n - i) for i in range(n + 1)))
        add("member-top", n, T(m - 1, n),
            sum(T(0, i) * A(0, n - i) + i * A(0, i) * A(0, n - i)
                + A(0, i) * T(0, n - i) for i in range(n + 1)))
        add("layer-join", n, R(0, n),
            sum(A(0, n - i - 1) * R(1, i) + A(1, i) * R(0, n - i - 1)
                for i in range(n)))
        for j in range(1, m - 1):
            add(f"layer-step[j={j}]", n, R(j, n),
                sum(A(0, n - i) * R(j + 1, i) + i * j * A(j + 1, i) * A(0, n - i)
                    + A(j + 1, i) * (R(0, n - i) + j * T(0, n - i))
                    for i in range(n + 1)))
        add("layer-top", n, R(m - 1, n),
            sum(A(0, n - i) * (R(0, i) + m * T(0, i))
                + i * (m - 1) * A(0, i) * A(0, n - i)
                + A(0, i) * (R(0, n - i) + (m - 1) * T(0, n - i))
                for i in range(n + 1)))
        add("size-join", n, G(0, n),
            sum(A(0, n - i - 1) * (G(1, i) + (n - i - 1) * R(1, i) - i * T(1, i))
                + A(1, i) * (G(0, n - i - 1) + (i + 1) * R(0, n - i - 1)
                             + T(0, n - i - 1))
                + i * A(1, i) * A(0, n - i - 1)
                - T(1, i) * T(0, n - i - 1)
                for i in range(n)))
        for j in range(1, m - 1):
            add(f"size-step[j={j}]", n, G(j, n),
                sum(A(0, n - i) * (G(j + 1, i) + (n - i) * R(j + 1, i)
                                   - i * T(j + 1, i))
                    + A(j + 1, i) * (G(0, n - i) + (i + 1) * R(0, n - i)
                                     + (j * (n + 1) + 1) * T(0, n - i))
                    + (j * (n + 1) + 1) * i * A(j + 1, i) * A(0, n - i)
                    - T(j + 1, i) * T(0, n - i)
                    for i in range(n + 1)))
        add("size-top", n, G(m - 1, n),
            sum(A(0, n - i) * (G(0, i) + (n - i + 1) * R(0, i)
                               + (m * (n + 1) + 1 - i) * T(0, i))
                + A(0, i) * (G(0, n - i) + (i + 1) * R(0, n - i)
                             + ((m - 1) * (n + 1) + 1) * T(0, n - i))
                + ((m - 1) * (n + 1) + 1) * i * A(0, i) * A(0, n - i)
                - T(0, i) * T(0, n - i)
                for i in range(n + 1)))
    return checks
