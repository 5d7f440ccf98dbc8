"""Truncated power series over the integers, and the generating-function
side of every statistic identity.

A TruncatedSeries knows its coefficients exactly through x**order.  All
arithmetic truncates to the shorter operand, and multiplying by x**k extends
the trusted order by k, so the `order` of any computed residual is exactly
how far the identity has been verified.  Coefficients are plain `int`s:
scalars are `int`s, every divisor has constant term 1 or -1, and each
rational scalar of the formulas goes through `_whole`, which refuses a
remainder.  There is no floating point and no tolerance anywhere: an
identity passes only if its residual is identically zero.
"""

from collections import namedtuple
from math import comb
from operator import index, mul

from .stats import compute_stats, core_count, recursion_rhs

# The lowest ledger order at which every entry, the triple-derivative ones
# included, reaches an effective order of at least 1; below it an entry
# could pass with nothing verified.
MIN_LEDGER_ORDER = 4


class DivisionByNonUnitError(ZeroDivisionError):
    """Series division needs a divisor whose constant term is 1 or -1."""


class IntegralityViolationError(ArithmeticError):
    """A scalar of the formulas that must be whole left a remainder."""


def _whole(num: int, den: int) -> int:
    """num / den, which the caller knows to be an integer."""
    q, r = divmod(num, den)
    if r:
        raise IntegralityViolationError(f"{num}/{den} is not an integer")
    return q


class TruncatedSeries(tuple):
    """The integer coefficients of x**0 ... x**order, as a tuple: it equals
    and hashes as the plain tuple of its coefficients, `len` is order + 1
    and a slice is a plain tuple.  The raw constructor checks nothing (it
    takes floats, and `()` has order -1): `series()` and `constant()` are
    the checked constructors.  Each coefficient of a product or a quotient
    is one dot product, summed in C: with the other operand reversed, or
    with the quotient's coefficients so far."""

    __slots__ = ()

    def __repr__(self):
        return f"TruncatedSeries({tuple(self)!r})"

    @property
    def order(self) -> int:
        return len(self) - 1

    def shift(self, k: int) -> "TruncatedSeries":
        """Multiply by x**k; the trusted order grows by k."""
        if k < 0:
            raise ValueError(f"cannot shift by x**{k}")
        return TruncatedSeries((0,) * k + tuple(self))

    def theta(self) -> "TruncatedSeries":
        """x * d/dx: coefficient n times n, at this order (order 0 too,
        where `derivative` refuses)."""
        return TruncatedSeries(n * c for n, c in enumerate(self))

    def derivative(self) -> "TruncatedSeries":
        if self.order < 1:
            raise ValueError("derivative needs order >= 1")
        return TruncatedSeries(self.theta()[1:])

    def _coerced(self, other):
        if isinstance(other, TruncatedSeries):
            return other
        if isinstance(other, int):
            return constant(other, self.order)
        return None

    def __neg__(self):
        return TruncatedSeries(-c for c in self)

    def __add__(self, other):
        other = self._coerced(other)
        if other is None:
            return NotImplemented
        return TruncatedSeries(a + b for a, b in zip(self, other))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerced(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return TruncatedSeries(c * other for c in self)
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        n = min(self.order, other.order)
        rb = other[n::-1]   # rb[n - k:] is other[k], ..., other[0]
        return TruncatedSeries(sum(map(mul, self, rb[n - k:])) for k in range(n + 1))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerced(other)
        if other is None:
            return NotImplemented
        inv0 = other[0]   # 1 and -1, the units of Z, are their own inverses
        if inv0 not in (1, -1):
            raise DivisionByNonUnitError(
                f"divisor has constant term {inv0}, not 1 or -1")
        tail, out = other[1:], []
        for a in self[:len(other)]:
            out.append((a - sum(map(mul, tail, reversed(out)))) * inv0)
        return TruncatedSeries(out)

    def __pow__(self, e: int):
        """Repeated squaring: the public operator, and the independent oracle
        the tests hold `SeriesBundle.powers`' successive products against."""
        if e < 0:
            raise ValueError("negative powers are spelled as division by a unit series")
        if e < 2:
            return self if e else constant(1, self.order)
        half = self ** (e // 2)
        return half * half * self if e & 1 else half * half


def series(values) -> TruncatedSeries:
    """The series with these coefficients, each an `int` (`operator.index`);
    no coefficients give the zero series of order 0."""
    return TruncatedSeries(tuple(map(index, values)) or (0,))


def constant(value, order: int) -> TruncatedSeries:
    if order < 0:
        raise ValueError("order must be >= 0")
    return TruncatedSeries((index(value),) + (0,) * order)


def fuss_catalan_number(m: int, n: int) -> int:
    """Closed binomial form binom((m+1)n + 1, n) / ((m+1)n + 1), exactly:
    the number of (n, m*n + 1)-cores."""
    return core_count(n, m * n + 1)


def fuss_catalan_series(m: int, order: int) -> TruncatedSeries:
    """The count series F = sum of fuss_catalan_number(m, n) x**n through
    x**order.  It is the unique series with F(0) = 1 and
    x*F**(m+1) - F + 1 = 0, which the ledger's `defining-equation` checks."""
    if m < 1 or order < 0:
        raise ValueError("need m >= 1 and order >= 0")
    return series([fuss_catalan_number(m, n) for n in range(order + 1)])


class SeriesBundle(namedtuple("SeriesBundle",
                              "powers count member layer size denom")):
    """Generating functions of the four ideal statistics at one slope m.

    `powers` holds F**0 ... F**(2m+2), built once by successive products.
    `count` (hiding `tuple.count`), `member`, `layer` and `size` map
    truncation j = 0 .. m - 1 to its series.  The counts are `powers[1]`,
    the count series F, at j = 0, and `powers[m - j + 1]` at j >= 1.
    Every series is over the integers.  `denom` is 1 - (m+1) x F**m, the
    divisor every bottom series is solved by.
    """

    __slots__ = ()


def stat_series(m: int, order: int) -> SeriesBundle:
    """Build every statistic series from the count series F and the
    recursions alone.

    Each truncation 1 <= j < m of a statistic S is the `recursion_rhs` of its
    step, chained down from the top, which reads S[0] as truncation m.  That
    chain is affine in S[0], and the join meets S[0] as (1 - `denom`) * S[0].
    So for member, then layer, then size: chain with S[0] = 0, solve S[0] as
    that join over `denom`, and chain again.  The ledger holds the solved
    series against the paper's closed forms, and `verify_stat_recursions` and
    `cross_check` hold them against the lattice-path grid.
    """
    F = fuss_catalan_series(m, order)
    P = [constant(1, order), F]
    for _ in range(2, 2 * m + 3):
        P.append(P[-1] * F)
    A = (F, *P[m:1:-1])
    denom = P[0] - (m + 1) * P[m].shift(1)
    T, R, G = ([constant(0, order)] * m for _ in range(3))
    for stat, S in (("member", T), ("layer", R), ("size", G)):
        for solve in (True, False):
            for j in range(m - 1, 0, -1):
                S[j] = recursion_rhs(stat, j, A, T, R, G)
            if solve:
                S[0] = recursion_rhs(stat, 0, A, T, R, G) / denom
    return SeriesBundle(tuple(P), A, tuple(T), tuple(R), tuple(G), denom)


class IdentityCheck(namedtuple("IdentityCheck", "identity m effective_order "
                               "residual_max_abs passed kind")):
    """Outcome of one ledger entry.

    `kind` is "derived" when a residual was evaluated, and "definitional"
    when the identity is the formula `stat_series` builds the series from,
    so it holds by construction and only its order is reported.
    """

    __slots__ = ()


def check_identities(m: int, order: int) -> list[IdentityCheck]:
    """Evaluate the full ledger of generating-function identities at slope m
    through x^order (the CLI's `--order`, 12 by default).

    Each derived entry subtracts the two sides of one identity as truncated
    series; it passes only when the residual is identically zero through its
    effective order.  Definitional entries name the formulas `stat_series`
    builds its series from: the closed-form count, the trimmed-count powers
    and every join, top and step relation.  The `*-bottom-closed-form`
    entries hold the series the recursion solves for against the paper's
    closed forms, `average-size-identity` holds the size series against
    Armstrong's average, and `member-closed-form[j]` and
    `layer-closed-form[j]` hold the chained series at each j against their
    closed forms.  Identities whose index families
    are empty at this m are omitted rather than trivialized, with one
    exception: at m = 1 the weighted sums `member-weighted-sum`,
    `member-derivative-weighted-sum` and `layer-weighted-sum` compare an
    empty sum over 1 <= j < m with a side whose every coefficient has a
    factor m - 1, and are kept so that the `series-verify --m 1` report
    keeps the rows it has always printed.
    """
    if m < 1 or order < MIN_LEDGER_ORDER:
        raise ValueError(f"need m >= 1 and order >= {MIN_LEDGER_ORDER}")
    b = stat_series(m, order)
    P = b.powers
    F = P[1]
    Fp = F.derivative()
    Fpp = Fp.derivative()
    Fppp = Fpp.derivative()
    T, R, G = b.member, b.layer, b.size
    denom = b.denom

    out: list[IdentityCheck] = []

    def add(name, residual):
        worst = max(map(abs, residual))
        out.append(IdentityCheck(name, m, residual.order, worst,
                                 worst == 0, "derived"))

    def built(name, defined):
        out.append(IdentityCheck(name, m, defined.order, 0,
                                 True, "definitional"))

    add("defining-equation", P[m + 1].shift(1) - F + 1)
    built("closed-form-count", F)
    for j in range(1, m):
        built(f"trimmed-count-power[j={j}]", P[m - j + 1])

    add("first-derivative", Fp * denom - P[m + 1])
    add("second-derivative",
        Fpp * denom ** 2
        - (m + 1) * P[m] * (Fp + P[m + 1] - (P[m] * Fp).shift(1)))
    add("third-derivative",
        Fppp * denom ** 3
        - (m + 1) * P[m - 1] * (
            F * Fpp
            + (m - 1) * m * (P[m] * Fp * Fp).shift(1)
            + (4 * m + 2) * P[m + 1] * Fp
            + m * Fp * Fp
            - (m + 2) * (P[m + 1] * Fpp).shift(1)
            + (m + 1) * (P[2 * m + 1] * Fpp).shift(2)
            - 2 * (m + 1) * (Fp * P[2 * m + 1]).shift(1)
            + 2 * (m + 1) * P[2 * m + 2]))

    # the paper's closed forms of the plain poset's series
    t0 = comb(m + 1, 2) * (Fp * Fp).shift(2) / F
    r0 = (comb(m + 1, 2) * (Fp * t0).shift(1)
          + comb(m + 1, 3) * (Fp * Fp).shift(2)) / F
    g0 = ((m + 1) * (P[m] * r0).shift(1)
          + (m * m + m) * (Fp * P[m - 1] * r0).shift(2)
          + comb(m + 2, 2) * (P[m] * t0).shift(1)
          + comb(m + 1, 2) * (Fp * P[m - 1] * t0).shift(2)
          + comb(m + 2, 3) * (Fp * P[m]).shift(2)
          + comb(m + 2, 4) * (Fp * Fp * P[m - 1]).shift(3)
          - comb(m + 1, 2) * (P[m - 1] * t0 * t0).shift(1)) / denom
    add("member-bottom-closed-form", T[0] - t0)
    add("layer-bottom-closed-form", R[0] - r0)
    add("size-bottom-closed-form", G[0] - g0)
    for j in range(1, m):
        p = m - j
        add(f"member-closed-form[j={j}]",
            T[j] - ((p + 1) * P[p] * T[0] + comb(p + 1, 2) * (Fp * P[p]).shift(1)))
        # (p + 1) + (m + j) = 2m + 1 is odd, so one of the two is even;
        # m + 2j - 1 = p - 1 + 3j, and (p - 1) p (p + 1) has a factor 3
        add(f"layer-closed-form[j={j}]",
            R[j] - ((p + 1) * P[p] * R[0]
                    + _whole((p + 1) * (m + j), 2) * P[p] * T[0]
                    + _whole((m + 2 * j - 1) * comb(p + 1, 2), 3) * (Fp * P[p]).shift(1)))

    tsum = tdsum = rsum = constant(0, order)
    for j in range(1, m):
        tsum = tsum + P[j - 1] * T[j]
        tdsum = tdsum + P[j] * T[j].derivative()
        rsum = rsum + P[j - 1] * R[j]
    half = _whole(m * m + m - 2, 2)   # m(m + 1) is even
    add("member-weighted-sum",
        tsum - P[m - 1] * (half * T[0] + comb(m + 1, 3) * Fp.shift(1)))
    add("member-derivative-weighted-sum",
        tdsum - P[m - 1] * (
            half * F * T[0].derivative()
            # three consecutive integers hold a factor 3
            + _whole((m - 1) * m * (m + 1), 3) * Fp * T[0]
            + comb(m + 1, 3) * Fp * F
            + comb(m + 1, 3) * (Fpp * F).shift(1)
            # the Stirling number S(m + 1, m - 1)
            + _whole((m - 1) * m * (m + 1) * (3 * m - 2), 24) * (Fp * Fp).shift(1)))
    add("layer-weighted-sum",
        rsum - P[m - 1] * (
            half * R[0]
            # = (m - 1) m (2m + 5): even, and = 2 (m - 1) m (m + 1) mod 3
            + _whole(m * (2 * m * m + 3 * m - 5), 6) * T[0]
            # 3 divides (m - 1) m (m + 1); 4 divides m^2 or (m - 1)(m + 1)
            + _whole((m - 1) * m * m * (m + 1), 12) * Fp.shift(1)))

    if m >= 2:
        for stat, S in (("member", T), ("layer", R), ("size", G)):
            built(f"{stat}-join-relation", S[0])
            built(f"{stat}-top-relation", S[m - 1])
            for j in range(1, m - 1):
                built(f"{stat}-step-relation[j={j}]", S[j])

    add("average-size-identity",
        m * (m + 1) * Fppp.shift(3) + m * (2 * m + 4) * Fpp.shift(2) - 24 * G[0])

    if m == 2:
        # The slope-two forms with literal coefficients, re-typed
        # independently of the general-m expressions above.
        Bp = P[2].derivative()
        d2 = P[0] - 3 * P[2].shift(1)
        # (n + 1) C(3n + 2, n + 1) = (3n + 2) C(3n + 1, n), gcd(n + 1, 3n + 2) = 1
        add("explicit-squared-count",
            series([_whole(comb(3 * n + 2, n + 1), 3 * n + 2)
                    for n in range(order + 1)]) - P[2])
        add("explicit-member-bottom", T[0] - 3 * (Fp * Fp).shift(2) / F)
        add("explicit-member-top", T[1] - (2 * F * T[0] + (Fp * F).shift(1)))
        add("explicit-member-top-derivative",
            T[1].derivative() - (2 * Fp * T[0] + 2 * F * T[0].derivative()
                                 + Fp * F + (Fpp * F).shift(1)
                                 + (Fp * Fp).shift(1)))
        add("explicit-member-join",
            T[0] - ((F * T[1]).shift(1) + (Bp * F).shift(2) + (P[2] * T[0]).shift(1)))
        add("explicit-layer-bottom",
            R[0] - (3 * (Fp * T[0]).shift(1) + (Fp * Fp).shift(2)) / F)
        add("explicit-layer-top",
            R[1] - (2 * F * R[0] + 3 * F * T[0] + (Fp * F).shift(1)))
        add("explicit-layer-join",
            R[0] - ((F * R[1]).shift(1) + (P[2] * R[0]).shift(1)))
        add("explicit-size-bottom",
            G[0] - (3 * (P[2] * R[0]).shift(1) + 6 * (Fp * F * R[0]).shift(2)
                    + 6 * (P[2] * T[0]).shift(1) + 3 * (Fp * F * T[0]).shift(2)
                    + 4 * (Fp * P[2]).shift(2) + (Fp * Fp * F).shift(3)
                    - 3 * (F * T[0] * T[0]).shift(1)) / d2)
        add("explicit-size-top",
            G[1] - (2 * F * G[0] + 2 * F * R[0] + 2 * (Fp * R[0]).shift(1)
                    + 5 * F * T[0] + 3 * (Fp * T[0]).shift(1)
                    + 2 * (F * T[0].derivative()).shift(1)
                    + 3 * (Fp * F).shift(1) + (Fp * Fp).shift(2)
                    + (Fpp * F).shift(2) - T[0] * T[0]))
        add("explicit-size-from-derivatives",
            12 * G[0] - (3 * Fppp.shift(3) + 8 * Fpp.shift(2)))
        add("explicit-first-derivative", Fp * d2 - P[3])
        add("explicit-second-derivative",
            Fpp * d2 ** 2 - 3 * P[2] * (Fp + P[3] - (P[2] * Fp).shift(1)))
        add("explicit-third-derivative",
            Fppp * d2 ** 3 - 3 * F * (
                3 * (P[5] * Fpp).shift(2) - 4 * (P[3] * Fpp).shift(1)
                + F * Fpp - 6 * (P[5] * Fp).shift(1) + 10 * P[3] * Fp
                + 2 * (P[2] * Fp * Fp).shift(1) + 2 * Fp * Fp + 6 * P[6]))

    return out


class CrossCheck(namedtuple("CrossCheck", "m j n statistic series_value "
                                         "enumerated_value passed")):
    """One series coefficient compared against one `compute_stats` total."""

    __slots__ = ()


def cross_check(m: int, n_max: int) -> list[CrossCheck]:
    """Compare series coefficients with the grid `compute_stats(m, n_max)`,
    statistic by statistic, on every truncation j < m and every n <= n_max.

    The two sides are computed by unrelated code paths (a Fuss-Catalan series
    against a lattice-path transfer over the abacus of each poset), so
    agreement here is the package's strongest oracle.
    """
    records = compute_stats(m, n_max)   # refuses a bad grid before any work
    bundle = stat_series(m, n_max)
    out = []
    for _, j, n, *totals in records:
        for stat, S, enumerated in zip(
                ("count", "member", "layer", "size"),
                (bundle.count, bundle.member, bundle.layer, bundle.size), totals):
            value = S[j][n]
            out.append(CrossCheck(m, j, n, stat, value, enumerated,
                                  value == enumerated))
    return out
