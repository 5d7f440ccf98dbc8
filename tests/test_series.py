from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from simcores.series import (MIN_LEDGER_ORDER, DivisionByNonUnitError,
                             IntegralityViolationError, TruncatedSeries,
                             _whole, check_identities, constant, cross_check,
                             fuss_catalan_number, fuss_catalan_series, series,
                             stat_series)
import simcores.series
from simcores.stats import _theta, as_truncation_m, average_size_check

small_ints = st.integers(min_value=-30, max_value=30)


def coeffs(f, upto=None):
    upper = f.order if upto is None else upto
    return [f[k] for k in range(upper + 1)]


def test_mul_example():
    f = series([1, 1], order=3) * series([1, -1], order=3)
    assert f == series([1, 0, -1, 0])


def test_series_is_an_immutable_value():
    f = series([1, 2, -7])
    assert f == series([1, 2, -7]) != series([1, 2, 0])
    assert hash(f) == hash(series([1, 2, -7]))
    with pytest.raises(AttributeError):
        f.coeffs = (0,)
    with pytest.raises(AttributeError):
        del f.coeffs
    assert repr(f) == "TruncatedSeries(coeffs=(1, 2, -7))"


def test_constructors_reject_floats():
    # the coefficients are integers: floats and Fractions, whole or not, are refused
    for bad in (0.1, 2.0, Fraction(1, 3), Fraction(4, 2)):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            series([1, bad])
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            constant(bad, 3)
    whole = series([2, -3, True])
    assert whole.coeffs == (2, -3, 1)
    assert all(type(c) is int for c in whole.coeffs)


def test_constructors_reject_negative_order():
    with pytest.raises(ValueError, match="order must be >= 0"):
        series([1, 2, 3], -1)
    with pytest.raises(ValueError, match="order must be >= 0"):
        constant(5, -1)
    assert series([1, 2, 3], 0) == constant(1, 0)
    assert series([]) == constant(0, 0)


def test_derivative_example():
    f = series([1, 1, 3, 12])
    assert f.derivative() == series([1, 6, 36])


def test_geometric_division():
    f = constant(1, 3) / series([1, -1], order=3)
    assert f == series([1, 1, 1, 1])


def test_division_by_nonunit():
    with pytest.raises(DivisionByNonUnitError, match="constant term 0"):
        constant(1, 3) / series([0, 1], order=3)
    # 2 is no unit of the integer series ring: 1/(2 - x) is not integral
    with pytest.raises(DivisionByNonUnitError, match="constant term 2"):
        constant(1, 3) / series([2, -1], order=3)
    with pytest.raises(DivisionByNonUnitError, match="constant term 2"):
        series([2, 4, 6]) / 2
    # -1 is its own inverse, and the quotient is exact
    f = series([3, -1, 4, 1])
    g = series([-1, 2, 0, 5])
    q = f / g
    assert q == series([-3, -5, -14, -44]) and q * g == f


def test_pow_shift_truncate():
    f = series([1, 2], order=4)
    assert f ** 0 == constant(1, 4)
    assert f ** 3 == series([1, 6, 12, 8, 0])
    assert f.shift(2).order == 6
    assert f.shift(2)[2] == 1
    assert f.truncate(1) == series([1, 2])
    with pytest.raises(ValueError):
        f.truncate(9)
    with pytest.raises(IndexError):
        f[5]
    g = series([1, 2, 3, 4, 5, 6])
    assert g ** 1 == g and g.truncate(0) == series([1])
    for bad in (lambda: g.shift(-2), lambda: g.truncate(-3),
                lambda: g.truncate(-1)):
        with pytest.raises(ValueError):
            bad()


def test_arithmetic_truncates_to_shorter():
    long = constant(1, 9)
    short = constant(1, 4)
    assert (long + short).order == 4
    assert (long * short).order == 4
    assert long.derivative().order == 8


def test_scalar_operations():
    f = series([1, 2, 3])
    assert 2 * f == series([2, 4, 6])
    assert f * -3 == series([-3, -6, -9])
    assert f - 1 == series([0, 2, 3])
    assert 1 - f == series([0, -2, -3])
    assert f + 2 == 2 + f == series([3, 2, 3])
    for scalar in (Fraction(1, 2), Fraction(4, 2), 0.5):
        for op in (lambda: f * scalar, lambda: scalar * f, lambda: f + scalar,
                   lambda: scalar - f):
            with pytest.raises(TypeError):
                op()


@given(st.lists(small_ints, min_size=3, max_size=7),
       st.lists(small_ints, min_size=3, max_size=7))
def test_product_rule(fa, ga):
    f, g = series(fa), series(ga)
    n = min(f.order, g.order)
    f, g = f.truncate(n), g.truncate(n)
    lhs = (f * g).derivative()
    rhs = f.derivative() * g + f * g.derivative()
    assert lhs == rhs


def test_fuss_catalan_series_values():
    assert coeffs(fuss_catalan_series(2, 4)) == [1, 1, 3, 12, 55]
    assert coeffs(fuss_catalan_series(1, 3)) == [1, 1, 2, 5]
    assert coeffs(fuss_catalan_series(3, 0)) == [1]


def test_fuss_catalan_closed_form_agrees():
    for m in (1, 2, 3, 4):
        f = fuss_catalan_series(m, 9)
        for n in range(10):
            assert f[n] == fuss_catalan_number(m, n)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("order", [0, 5, 12, 20, 40])
def test_defining_equation_residual_zero(m, order):
    # F is read off the Fuss-Catalan numbers; the functional equation is the
    # independent oracle that it is the fixed point of 1 + x*F**(m+1)
    f = fuss_catalan_series(m, order)
    residual = (f ** (m + 1)).shift(1) - f + 1
    assert residual.is_zero


def test_fixed_point_idempotent():
    for m in (1, 2, 4):
        f = fuss_catalan_series(m, 10)
        again = ((f ** (m + 1)).shift(1) + 1).truncate(10)
        assert again == f


def test_stat_series_frozen_coefficients():
    b = stat_series(2, 6)
    assert coeffs(b.member[0], 3) == [0, 0, 3, 33]
    assert coeffs(b.size[0], 4) == [0, 0, 4, 66, 770]
    assert coeffs(b.powers[2], 4) == [1, 2, 7, 30, 143]


def test_stat_series_slope_one_degenerates():
    b = stat_series(1, 8)
    f = fuss_catalan_series(1, 8)
    fp = f.derivative()
    assert b.powers[:2] == (constant(1, 8), f)
    assert b.member[0] == (fp * fp).shift(2) / f
    assert [len(b.count), len(b.member), len(b.layer), len(b.size)] == [2] * 4


@pytest.mark.parametrize("m", [1, 2, 6, 40])
def test_power_table_matches_repeated_squaring(m):
    # the table's successive products against __pow__'s repeated squaring
    b = stat_series(m, 12)
    assert len(b.powers) == 2 * m + 3
    assert all(p == b.powers[1] ** k for k, p in enumerate(b.powers))


def test_ledger_and_cross_check_read_powers_from_the_table(monkeypatch):
    powered = []
    original = TruncatedSeries.__pow__

    def spy(self, e):
        powered.append(self)
        return original(self, e)

    monkeypatch.setattr(TruncatedSeries, "__pow__", spy)
    for m in range(1, 7):
        assert all(c.passed for c in check_identities(m, 24))
        assert all(r.passed for r in cross_check(m, 4))
        # the bundle's F has order 24 in the ledger and 4 in cross_check
        assert fuss_catalan_series(m, 24) not in powered, m
        assert fuss_catalan_series(m, 4) not in powered, m


def test_ledger_at_the_largest_guarded_slope_and_order():
    checks = check_identities(40, 40)
    assert checks and all(c.passed and c.effective_order >= 1 for c in checks)


def test_integrality_guard():
    assert _whole(12, 4) == 3 and _whole(-12, 4) == -3 and _whole(0, 7) == 0
    assert type(_whole(10 ** 30, 5)) is int
    for num, den in ((1, 2), (-1, 2), (7, 3), (10 ** 30 + 1, 10)):
        with pytest.raises(IntegralityViolationError, match=f"{num}/{den}"):
            _whole(num, den)


@pytest.mark.parametrize("m", range(1, 7))
def test_ledger_and_cross_check_report_plain_ints(m):
    # the reports carry the series' own ints, with no conversion on the way
    checks = check_identities(m, 12)
    assert all(type(c.residual_max_abs) is int for c in checks)
    rows = cross_check(m, 5)
    assert rows and all(type(r.series_value) is int for r in rows)


def test_ledger_scalars_are_whole_beyond_the_guard():
    # every `_whole` scalar of stat_series and of the ledger, on slopes past
    # the CLI's guard of 40
    for m in range(1, 61):
        assert all(c.passed for c in check_identities(m, MIN_LEDGER_ORDER)), m


def test_stat_series_rejects_tiny_order():
    with pytest.raises(ValueError):
        stat_series(2, -1)


@pytest.mark.parametrize("m", range(1, 7))
def test_stat_series_coefficients_are_ints(m):
    # counting series stay in plain ints: every divisor has constant term 1
    # and every rational scalar of the formulas is whole
    b = stat_series(m, 24)
    built = [*b.powers, *b.member, *b.layer, *b.size]
    assert all(type(c) is int for f in built for c in f.coeffs)


@pytest.mark.parametrize("m", range(1, 7))
def test_stat_series_maps_every_truncation_through_m(m):
    b = stat_series(m, 12)
    maps = (b.count, b.member, b.layer, b.size)
    assert [len(S) for S in maps] == [m + 1] * 4
    assert tuple(S[m] for S in maps) == as_truncation_m(m, *(S[0] for S in maps))


@pytest.mark.parametrize("m", [1, 2, 3])
def test_identity_ledger_passes(m):
    checks = check_identities(m, 12)
    failed = [c for c in checks if not c.passed]
    assert not failed, failed
    names = {c.identity for c in checks}
    assert "defining-equation" in names
    assert "average-size-identity" in names
    if m == 2:
        assert "explicit-squared-count" in names
        assert "explicit-size-from-derivatives" in names
    if m >= 2:
        assert "size-join-relation" in names
    if m >= 3:
        assert "member-step-relation[j=1]" in names


@pytest.mark.parametrize("m", [4, 5, 6])
def test_identity_ledger_passes_at_higher_slopes(m):
    # exercises the step-relation chains at deeper truncation indices
    checks = check_identities(m, 12)
    assert all(c.passed for c in checks)
    names = {c.identity for c in checks}
    assert f"size-step-relation[j={m - 2}]" in names


def test_cross_check_deeper_truncations():
    rows = cross_check(4, 4)
    assert all(r.passed for r in rows)
    assert {r.j for r in rows} == {0, 1, 2, 3}


def test_identity_effective_orders():
    checks = {c.identity: c for c in check_identities(2, 12)}
    assert checks["defining-equation"].effective_order == 12
    # triple-derivative identities are verified three orders lower
    assert checks["third-derivative"].effective_order == 9
    assert checks["average-size-identity"].effective_order == 12
    # no entry may pass vacuously, with nothing verified
    for m in range(1, 7):
        checks = check_identities(m, MIN_LEDGER_ORDER)
        assert all(c.effective_order >= 1 for c in checks), m
    with pytest.raises(ValueError):
        check_identities(2, MIN_LEDGER_ORDER - 1)


def test_every_relation_is_verified_to_the_full_order():
    # the join and step relations lose no order, on slopes no gated job runs
    for m in range(2, 13):
        for order in (4, 12):
            rows = [c for c in check_identities(m, order) if "-relation" in c.identity]
            assert len(rows) == 3 * (m - 1) + 3
            assert all(c.effective_order == order for c in rows), (m, order)


def _add_x_squared(monkeypatch, stat0, j0):
    """Add x**2 to recursion_rhs(stat0, j0, ...) as stat_series sees it."""
    real = simcores.series.recursion_rhs

    def faulty(stat, j, A, T, R, G):
        rhs = real(stat, j, A, T, R, G)
        return rhs + series([0, 0, 1], rhs.order) if (stat, j) == (stat0, j0) else rhs

    monkeypatch.setattr(simcores.series, "recursion_rhs", faulty)


def test_a_fault_in_size_one_fails_the_size_bottom_and_cross_check(monkeypatch):
    # a faulty size[1] in a finished bundle is seen by cross_check alone
    real = simcores.series.stat_series

    def faulty(m, order):
        b = real(m, order)
        g1 = b.size[1] + series([0, 0, 1], order)
        return b._replace(size=(b.size[0], g1, *b.size[2:]))

    with monkeypatch.context() as patch:
        patch.setattr(simcores.series, "stat_series", faulty)
        for m in (2, 3, 5):
            assert [(r.j, r.n, r.statistic) for r in cross_check(m, 4)
                    if not r.passed] == [(1, 2, "size")]
    # stat_series solves size[0] from size[1], so the same fault in the
    # size step at j = 1 moves the bottom series the ledger holds
    _add_x_squared(monkeypatch, "size", 1)
    for m in (2, 3, 5):
        failed = {c.identity for c in check_identities(m, 12) if not c.passed}
        # at m = 2 the explicit slope-two size series see it too
        explicit = {"explicit-size-bottom", "explicit-size-top",
                    "explicit-size-from-derivatives"} if m == 2 else set()
        assert failed == {"size-bottom-closed-form", "average-size-identity"} | explicit, m


def test_a_fault_in_a_layer_step_fails_the_layer_closed_form(monkeypatch):
    # stat_series builds every truncation j >= 1 by recursion_rhs, so a fault
    # in a term the join does not read (it carries a factor j) still shows,
    # and it reaches the bottom series, which is solved from the chain
    real = simcores.series.recursion_rhs

    def faulty(stat, j, A, T, R, G):
        rhs = real(stat, j, A, T, R, G)
        return rhs + j * _theta(A[j + 1]) * A[0] if stat == "layer" and j else rhs

    monkeypatch.setattr(simcores.series, "recursion_rhs", faulty)
    failed = {c.identity for c in check_identities(2, 12) if not c.passed}
    assert failed == {"layer-bottom-closed-form", "layer-closed-form[j=1]",
                      "layer-weighted-sum", "size-bottom-closed-form",
                      "average-size-identity", "explicit-layer-bottom",
                      "explicit-layer-top", "explicit-size-bottom",
                      "explicit-size-from-derivatives"}


@pytest.mark.parametrize("stat", ["member", "layer", "size"])
@pytest.mark.parametrize("j, m", [(0, 1), (0, 2), (0, 3), (0, 4),
                                  (1, 2), (1, 3), (1, 4)])
def test_a_fault_in_a_join_or_step_fails_the_bottom_and_average(monkeypatch, stat, j, m):
    # every bottom series is solved from its join and chain, so Armstrong's
    # average and the statistic's own closed form both see a fault in either
    _add_x_squared(monkeypatch, stat, j)
    failed = {c.identity for c in check_identities(m, 12) if not c.passed}
    assert {"average-size-identity", f"{stat}-bottom-closed-form"} <= failed


@pytest.mark.parametrize("m", range(1, 7))
def test_identity_ledger_kinds(m):
    # the formulas stat_series builds from are tagged, everything else is a
    # residual that was actually evaluated; the bottom closed forms are
    # derived, and at m = 1 no relation row is reported
    checks = check_identities(m, 12)
    steps = range(1, m)
    definitional = ({"closed-form-count"}
                    | {f"trimmed-count-power[j={j}]" for j in steps}
                    | {f"{stat}-step-relation[j={j}]"
                       for stat in ("member", "layer", "size")
                       for j in range(1, m - 1)})
    if m >= 2:
        definitional |= {f"{stat}-{end}-relation"
                         for stat in ("member", "layer", "size")
                         for end in ("join", "top")}
    assert {c.identity for c in checks if c.kind == "definitional"} == definitional
    assert all(c.kind == "derived" for c in checks
               if c.identity not in definitional)
    assert all(c.passed for c in checks)
    counts = {1: (1, 12), 2: (8, 35), 6: (24, 45)}
    if m in counts:
        assert (len(definitional), len(checks)) == counts[m]


def test_failed_identity_reports_first_nonzero():
    residual = series([0, 0, -1, 2, -3])
    assert residual.first_nonzero() == 2
    assert residual.max_abs() == 3
    assert series([0, 0]).first_nonzero() is None and series([0, 0]).max_abs() == 0


def test_cross_check_matches_enumeration_and_totals():
    rows = cross_check(2, 3)
    assert all(r.passed for r in rows)
    by_key = {(r.j, r.n, r.statistic): r for r in rows}
    assert by_key[(0, 3, "size")].series_value == 66
    assert average_size_check(3, 7).total == 66


def test_cross_check_single_slice():
    rows = [r for r in cross_check(3, 2) if r.j == 1]
    assert rows and all(r.j == 1 and r.passed for r in rows)


def test_truncated_series_value_semantics():
    f = series([1, 2, 3])
    assert f == TruncatedSeries((1, 2, 3))
    assert f != f.truncate(1)
