"""Truncated power series over exact numbers, and the generating-function
side of every statistic identity.

A TruncatedSeries knows its coefficients exactly through x**order.  All
arithmetic truncates to the shorter operand, and multiplying by x**k extends
the trusted order by k, so the `order` of any computed residual is exactly
how far the identity has been verified.  Coefficients are exact: `int` when
whole, `Fraction` otherwise.  There is no floating point and no tolerance
anywhere: an identity passes only if its residual is identically zero.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .posets import FamilyId
from .stats import compute_stats, core_count

# The lowest ledger order at which every entry, the triple-derivative ones
# included, reaches an effective order of at least 1; below it an entry
# could pass with nothing verified.
MIN_LEDGER_ORDER = 4


class DivisionByNonUnitError(ZeroDivisionError):
    """Series division needs a divisor with a nonzero constant term."""


class IntegralityViolationError(ArithmeticError):
    """A counting series produced a non-integer coefficient."""


def _exact(value) -> int | Fraction:
    """An int or Fraction as an int when whole; anything else is a TypeError."""
    if not isinstance(value, (int, Fraction)):
        raise TypeError(f"coefficients must be int or Fraction, got {value!r}")
    return value.numerator if value.denominator == 1 else value


@dataclass(frozen=True)
class TruncatedSeries:
    coeffs: tuple[int | Fraction, ...]

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, k: int) -> int | Fraction:
        if not 0 <= k <= self.order:
            raise IndexError(f"coefficient of x^{k} beyond truncation order {self.order}")
        return self.coeffs[k]

    def truncate(self, order: int) -> "TruncatedSeries":
        if not 0 <= order <= self.order:
            raise ValueError(f"cannot truncate order {self.order} to {order}")
        return TruncatedSeries(self.coeffs[:order + 1])

    def shift(self, k: int) -> "TruncatedSeries":
        """Multiply by x**k; the trusted order grows by k."""
        if k < 0:
            raise ValueError(f"cannot shift by x**{k}")
        return TruncatedSeries((0,) * k + self.coeffs)

    def derivative(self) -> "TruncatedSeries":
        if self.order < 1:
            raise ValueError("derivative needs order >= 1")
        return TruncatedSeries(tuple(k * c for k, c in enumerate(self.coeffs))[1:])

    def _coerced(self, other):
        if isinstance(other, TruncatedSeries):
            return other
        if isinstance(other, (int, Fraction)):
            return constant(other, self.order)
        return None

    def __neg__(self):
        return TruncatedSeries(tuple(-c for c in self.coeffs))

    def __add__(self, other):
        other = self._coerced(other)
        if other is None:
            return NotImplemented
        n = min(self.order, other.order)
        return TruncatedSeries(tuple(a + b for a, b in
                                     zip(self.coeffs[:n + 1], other.coeffs[:n + 1])))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerced(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return TruncatedSeries(tuple(_exact(c * other) for c in self.coeffs))
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        n = min(self.order, other.order)
        a, b = self.coeffs, other.coeffs
        out = [0] * (n + 1)
        for i in range(n + 1):
            ai = a[i]
            if ai:
                for j in range(n + 1 - i):
                    out[i + j] += ai * b[j]
        return TruncatedSeries(tuple(out))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerced(other)
        if other is None:
            return NotImplemented
        if other.coeffs[0] == 0:
            raise DivisionByNonUnitError("divisor has zero constant term")
        n = min(self.order, other.order)
        a, b = self.coeffs, other.coeffs
        inv0 = _exact(1 / Fraction(b[0]))
        out = [0] * (n + 1)
        for k in range(n + 1):
            acc = a[k]
            for i in range(1, k + 1):
                acc -= b[i] * out[k - i]
            out[k] = acc * inv0
        return TruncatedSeries(tuple(out))

    def __pow__(self, e: int):
        """Repeated squaring: the public operator, and the independent oracle
        the tests hold `SeriesBundle.powers`' successive products against."""
        if e < 0:
            raise ValueError("negative powers are spelled as division by a unit series")
        if e < 2:
            return self if e else constant(1, self.order)
        half = self ** (e // 2)
        return half * half * self if e & 1 else half * half

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def max_abs(self) -> int | Fraction:
        return max((abs(c) for c in self.coeffs), default=0)

    def first_nonzero(self) -> int | None:
        for k, c in enumerate(self.coeffs):
            if c:
                return k
        return None


def series(values, order: int | None = None) -> TruncatedSeries:
    """Build a series from coefficients, zero-padded or cut to `order`."""
    coeffs = [_exact(v) for v in values]
    if order is not None:
        if order < 0:
            raise ValueError("order must be >= 0")
        coeffs = (coeffs + [0] * (order + 1 - len(coeffs)))[:order + 1]
    return TruncatedSeries(tuple(coeffs) or (0,))


def constant(value, order: int) -> TruncatedSeries:
    if order < 0:
        raise ValueError("order must be >= 0")
    return TruncatedSeries((_exact(value),) + (0,) * order)


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


def _require_integral(f: TruncatedSeries, label: str) -> TruncatedSeries:
    for k, c in enumerate(f.coeffs):
        if c.denominator != 1:
            raise IntegralityViolationError(
                f"{label}: coefficient of x^{k} is {c}, not an integer")
    return f


@dataclass(frozen=True, eq=False)
class SeriesBundle:
    """Generating functions of the four ideal statistics at one slope m.

    `powers` holds F**0 ... F**(2m+2), built once by successive products;
    truncation j >= 1 counts `powers[m - j + 1]`.  Keys of the dicts are the
    truncation index j.  All counting series, the powers included, are
    checked for integer coefficients at construction.  `denom` is
    1 - (m+1) x F**m, the divisor of the size series.
    """

    m: int
    count: TruncatedSeries
    powers: tuple[TruncatedSeries, ...]
    member: dict[int, TruncatedSeries]
    layer: dict[int, TruncatedSeries]
    size: dict[int, TruncatedSeries]
    denom: TruncatedSeries


def stat_series(m: int, order: int) -> SeriesBundle:
    """Build every statistic series from the count series F.

    The member and layer series come from their closed forms; the size
    series for the truncated posets are chained down from the plain poset
    read as truncation m (see `verify_stat_recursions`), which leaves the
    bottom join relation as an independent check in `check_identities`.
    """
    if order < 3:
        raise ValueError("order must be >= 3")
    F = fuss_catalan_series(m, order)
    Fp = F.derivative()
    Fpp = Fp.derivative()
    P = [constant(1, order), _require_integral(F, "count series")]
    for k in range(2, 2 * m + 3):
        P.append(_require_integral(P[-1] * F, f"count series power {k}"))

    t0 = comb(m + 1, 2) * (Fp * Fp).shift(2) / F
    r0 = (comb(m + 1, 2) * (Fp * t0).shift(1)
          + comb(m + 1, 3) * (Fp * Fp).shift(2)) / F
    member = {0: _require_integral(t0, "member series j=0")}
    layer = {0: _require_integral(r0, "layer series j=0")}
    for j in range(1, m):
        p = m - j
        tj = (m + 1 - j) * P[p] * t0 + comb(m + 1 - j, 2) * (Fp * P[p]).shift(1)
        rj = ((m - j + 1) * P[p] * r0
              + Fraction((m - j + 1) * (m + j), 2) * P[p] * t0
              + Fraction(m + 2 * j - 1, 3) * comb(m - j + 1, 2) * (Fp * P[p]).shift(1))
        member[j] = _require_integral(tj, f"member series j={j}")
        layer[j] = _require_integral(rj, f"layer series j={j}")

    denom = P[0] - (m + 1) * P[m].shift(1)
    g0 = ((m + 1) * (P[m] * r0).shift(1)
          + (m * m + m) * (Fp * P[m - 1] * r0).shift(2)
          + comb(m + 2, 2) * (P[m] * t0).shift(1)
          + comb(m + 1, 2) * (Fp * P[m - 1] * t0).shift(2)
          + comb(m + 2, 3) * (Fp * P[m]).shift(2)
          + comb(m + 2, 4) * (Fp * Fp * P[m - 1]).shift(3)
          - comb(m + 1, 2) * (P[m - 1] * t0 * t0).shift(1)) / denom
    size = {0: _require_integral(g0, "size series j=0")}
    if m >= 2:
        # truncation m: the plain poset relabelled, as in verify_stat_recursions
        t0p = t0.derivative()
        tnext, rnext = t0, r0 + m * t0
        gnext = g0 + r0 + (m + 1) * t0 + m * t0p.shift(1)
        for j in range(m - 1, 0, -1):
            q = m - j
            size[j] = (F * gnext + (Fp * rnext).shift(1)
                       - (F * tnext.derivative()).shift(1)
                       + P[q] * g0 + P[q] * r0
                       + (m - j) * (Fp * P[q - 1] * r0).shift(1)
                       + (j + 1) * P[q] * t0
                       + j * (m - j) * (Fp * P[q - 1] * t0).shift(1)
                       + j * (P[q] * t0p).shift(1)
                       + (2 * j + 1) * (m - j) * (Fp * P[q]).shift(1)
                       + j * (m - j) * (Fpp * P[q]).shift(2)
                       + j * (m - j) ** 2 * (Fp * Fp * P[q - 1]).shift(2)
                       - t0 * tnext)
            _require_integral(size[j], f"size series j={j}")
            tnext, rnext, gnext = member[j], layer[j], size[j]
    return SeriesBundle(m, F, tuple(P), member, layer, size, denom)


@dataclass(frozen=True)
class IdentityCheck:
    """Outcome of one ledger entry.

    `kind` is "derived" when a residual was evaluated, and "definitional"
    when the identity is the formula `stat_series` builds the series from,
    so it holds by construction and only its order is reported.
    """

    identity: str
    m: int
    effective_order: int
    residual_max_abs: int | Fraction
    first_nonzero: int | None
    passed: bool
    kind: str


def check_identities(m: int, order: int = 12) -> list[IdentityCheck]:
    """Evaluate the full ledger of generating-function identities at slope m.

    Each derived entry subtracts the two sides of one identity as truncated
    series; it passes only when the residual is identically zero through its
    effective order.  Definitional entries name the formulas `stat_series`
    builds its series from.  Identities whose index families are empty at
    this m are omitted rather than trivialized, with one exception: at m = 1
    the weighted sums `member-weighted-sum`, `member-derivative-weighted-sum`
    and `layer-weighted-sum` compare an empty sum over 1 <= j < m with a side
    whose every coefficient has a factor m - 1, and are kept so that the
    `series-verify --m 1` report keeps the rows it has always printed.
    """
    if m < 1 or order < MIN_LEDGER_ORDER:
        raise ValueError(f"need m >= 1 and order >= {MIN_LEDGER_ORDER}")
    b = stat_series(m, order)
    F, P = b.count, b.powers
    Fp = F.derivative()
    Fpp = Fp.derivative()
    Fppp = Fpp.derivative()
    T, R, G = b.member, b.layer, b.size
    denom = b.denom

    out: list[IdentityCheck] = []

    def add(name, residual):
        nz = residual.first_nonzero()
        out.append(IdentityCheck(name, m, residual.order, residual.max_abs(),
                                 nz, nz is None, "derived"))

    def built(name, defined):
        out.append(IdentityCheck(name, m, defined.order, 0,
                                 None, True, "definitional"))

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

    built("member-bottom-closed-form", T[0])
    built("layer-bottom-closed-form", R[0])
    built("size-bottom-closed-form", G[0])
    for j in range(1, m):
        built(f"member-closed-form[j={j}]", T[j])
        built(f"layer-closed-form[j={j}]", R[j])

    tsum = tdsum = rsum = constant(0, order)
    for j in range(1, m):
        tsum = tsum + P[j - 1] * T[j]
        tdsum = tdsum + P[j] * T[j].derivative()
        rsum = rsum + P[j - 1] * R[j]
    add("member-weighted-sum",
        tsum - P[m - 1] * (Fraction(m * m + m - 2, 2) * T[0]
                           + comb(m + 1, 3) * Fp.shift(1)))
    add("member-derivative-weighted-sum",
        tdsum - P[m - 1] * (
            Fraction(m * m + m - 2, 2) * F * T[0].derivative()
            + Fraction((m - 1) * m * (m + 1), 3) * Fp * T[0]
            + comb(m + 1, 3) * Fp * F
            + comb(m + 1, 3) * (Fpp * F).shift(1)
            + Fraction((m - 1) * m * (m + 1) * (3 * m - 2), 24) * (Fp * Fp).shift(1)))
    add("layer-weighted-sum",
        rsum - P[m - 1] * (
            Fraction(m * m + m - 2, 2) * R[0]
            + Fraction(m * (2 * m * m + 3 * m - 5), 6) * T[0]
            + Fraction((m - 1) * m * m * (m + 1), 12) * Fp.shift(1)))

    if m >= 2:
        add("member-join-relation",
            T[0] - ((F * T[1]).shift(1) + m * (Fp * P[m]).shift(2)
                    + (P[m] * T[0]).shift(1)))
        built("member-top-relation", T[m - 1])
        for j in range(1, m - 1):
            add(f"member-step-relation[j={j}]",
                T[j] - (F * T[j + 1] + (m - j) * (Fp * P[m - j]).shift(1)
                        + P[m - j] * T[0]))
        add("layer-join-relation",
            R[0] - ((F * R[1]).shift(1) + (P[m] * R[0]).shift(1)))
        built("layer-top-relation", R[m - 1])
        for j in range(1, m - 1):
            add(f"layer-step-relation[j={j}]",
                R[j] - (F * R[j + 1] + j * P[m - j] * T[0]
                        + j * (m - j) * (Fp * P[m - j]).shift(1)
                        + P[m - j] * R[0]))
        add("size-join-relation",
            G[0] - ((F * G[1]).shift(1) + (Fp * R[1]).shift(2)
                    - (F * T[1].derivative()).shift(2)
                    + (P[m] * G[0]).shift(1) + (P[m] * R[0]).shift(1)
                    + m * (Fp * P[m - 1] * R[0]).shift(2)
                    + (P[m] * T[0]).shift(1) + m * (Fp * P[m]).shift(2)
                    - (T[0] * T[1]).shift(1)))
        built("size-top-relation", G[m - 1])
        for j in range(1, m - 1):
            built(f"size-step-relation[j={j}]", G[j])

    add("average-size-identity",
        m * (m + 1) * Fppp.shift(3) + m * (2 * m + 4) * Fpp.shift(2) - 24 * G[0])

    if m == 2:
        # The slope-two forms with literal coefficients, re-typed
        # independently of the general-m expressions above.
        Bp = P[2].derivative()
        d2 = P[0] - 3 * P[2].shift(1)
        add("explicit-squared-count",
            series([Fraction(comb(3 * n + 2, n + 1), 3 * n + 2)
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


@dataclass(frozen=True)
class CrossCheck:
    """One series coefficient compared against one `compute_stats` total."""

    m: int
    j: int
    n: int
    statistic: str
    series_value: int
    enumerated_value: int
    passed: bool


def cross_check(m: int, n_max: int) -> list[CrossCheck]:
    """Compare series coefficients with `compute_stats`, statistic by
    statistic, on every truncation j < m and every n <= n_max.

    The two sides are computed by unrelated code paths (a Fuss-Catalan series
    against a lattice-path transfer over the abacus of each poset), so
    agreement here is the package's strongest oracle.
    """
    if m < 1 or n_max < 0:
        raise ValueError("need m >= 1 and n_max >= 0")
    bundle = stat_series(m, n_max + 3)
    out = []
    for j in range(m):
        counts = bundle.powers[m - j + 1] if j else bundle.count
        for n in range(n_max + 1):
            rec = compute_stats(FamilyId(m, j, n))
            rows = (("count", counts, rec.ideal_count),
                    ("member", bundle.member[j], rec.member_sum),
                    ("layer", bundle.layer[j], rec.layer_sum),
                    ("size", bundle.size[j], rec.core_size_sum))
            for stat, srs, enumerated in rows:
                value = srs[n]
                out.append(CrossCheck(m, j, n, stat, int(value), enumerated,
                                      value == enumerated))
    return out
