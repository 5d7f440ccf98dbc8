import argparse
import importlib
from fractions import Fraction
from itertools import combinations
from math import comb, gcd

import pytest

from simcores import cli, stats
from simcores.betaset import ideal_to_partition
from simcores.posets import (FamilyId, NonCoprimeError, _ideal_masks,
                             family_poset, gap_poset, induced_subposet,
                             order_ideals)
from simcores.series import cross_check, series
from simcores.cli import EnumerationTooLargeError
from simcores.stats import (StatRecord, _path_totals, average_size_check,
                            compute_stats, core_count, recursion_rhs,
                            verify_stat_recursions)
from oracles import moment_path_totals


def brute_stats(family):
    """Subset-filter oracle for the four statistics; tiny posets only."""
    poset = family_poset(family)
    div = family.layer_divisor
    count = members = layers = sizes = 0
    for r in range(len(poset.elements) + 1):
        for sub in combinations(poset.elements, r):
            chosen = set(sub)
            if not all(lo in chosen for hi, lo in poset.covers if hi in chosen):
                continue
            count += 1
            members += r
            layers += sum(p // div for p in sub)
            sizes += sum(sub) - r * (r - 1) // 2
    return count, members, layers, sizes


def _ideal_totals(poset) -> tuple[int, list[int], int]:
    """One pass over every order ideal of `poset`.

    Returns the ideal count, how many ideals contain each element (by
    element index), and the total core size, which is the sum over ideals
    of `sum(members) - C(r, 2)` for an ideal of r members.
    """
    occupancy = [0] * len(poset.elements)
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


def enumerated_stats(family):
    """Enumeration oracle for the four statistics: walk every ideal."""
    poset = family_poset(family)
    count, occupancy, size_total = _ideal_totals(poset)
    div = family.layer_divisor
    layer_total = sum(k * (e // div) for k, e in zip(occupancy, poset.elements))
    return count, sum(occupancy), layer_total, size_total


def stats_of(family):
    """The record of one family poset, picked out of its grid."""
    return next(rec for rec in compute_stats(family.m, family.n)
                if rec[:3] == family)


def test_path_totals_against_enumeration_on_the_guarded_grid():
    families = 0
    for m in range(1, 7):
        for j in range(m):
            n = 0
            while len(family_poset(FamilyId(m, j, n)).elements) <= 60:
                fid = FamilyId(m, j, n)
                rec = stats_of(fid)
                assert (rec.ideal_count, rec.member_sum, rec.layer_sum,
                        rec.core_size_sum) == enumerated_stats(fid), fid
                families += 1
                n += 1
    assert families == 134
    # every coprime pair with at most 40 gaps, in both argument orders
    pairs = [(a, b) for a in range(1, 82) for b in range(1, 82)
             if gcd(a, b) == 1 and (a - 1) * (b - 1) // 2 <= 40]
    assert all((b, a) in pairs for a, b in pairs)
    for a, b in pairs:
        count, _, total = _ideal_totals(gap_poset(a, b))
        chk = average_size_check(a, b)
        assert (chk.count, chk.total) == (count, total), (a, b)


def test_path_totals_match_the_moment_transfer_past_enumeration():
    # members and layers have no other check off the slope family, and
    # enumeration stops at a few dozen gaps; the five-moment transfer does not
    pairs = [(a, b) for b in range(1, 61) for a in range(b) if gcd(a, b) == 1]
    pairs += [(b, a) for a, b in pairs if a and b <= 30]   # empty runners
    pairs += [(99, 1000), (200, 201)]
    pairs += [(a, 6 * a + 1) for a in range(42)]
    pairs += [(a, 40 * a + 1) for a in range(12)]
    assert len(pairs) == 1435
    for a, b in pairs:
        assert _path_totals(a, b) == moment_path_totals(a, b), (a, b)


def test_guard_size_is_family_size(monkeypatch):
    # the CLI's grid guard fires exactly above the elements of the family
    # posets it covers
    for m in range(1, 7):
        elements = 0
        for n in range(14):
            layer = sum(len(family_poset(FamilyId(m, j, n)).elements)
                        for j in range(m))
            assert layer == comb(m * n, 2)
            elements += layer
            args = argparse.Namespace(m=m, max_n=n, unsafe_limits=False)
            monkeypatch.setattr(cli, "MAX_GRID_ELEMENTS", elements)
            cli._guard_grid(args)
            if elements:
                monkeypatch.setattr(cli, "MAX_GRID_ELEMENTS", elements - 1)
                with pytest.raises(EnumerationTooLargeError,
                                   match=f"is {elements}, above the guard"):
                    cli._guard_grid(args)


@pytest.mark.parametrize("check,m,n_max", [(verify_stat_recursions, 0, 3),
                                            (verify_stat_recursions, 2, -1),
                                            (cross_check, 2, -1),
                                            (compute_stats, 0, 3),
                                            (compute_stats, 2, -1)])
def test_grid_checks_refuse_an_empty_or_invalid_grid(check, m, n_max):
    # an empty grid would pass all(...) vacuously, and m = 0 has no slope
    with pytest.raises(ValueError, match=r"^need m >= 1 and n_max >= 0$"):
        check(m, n_max)


def test_checks_past_the_guard():
    for m in range(1, 7):
        checks = cross_check(m, 40)
        assert len(checks) == 4 * m * 41 and all(c.passed for c in checks)
        checks = verify_stat_recursions(m, 40)
        assert checks and all(c.passed for c in checks)
    for a, b in [(30, 31), (50, 51)]:
        chk = average_size_check(a, b)
        assert chk.count == core_count(a, b) and chk.matches
    for a, b in [(13, 29), (19, 30)]:
        assert b % a != 1
        chk = average_size_check(a, b)
        # Armstrong's closed form, for every coprime pair
        armstrong = Fraction((a - 1) * (b - 1) * (a + b + 1), 24 * (a + b)) \
            * comb(a + b, a)
        assert chk.total == armstrong and chk.count == core_count(a, b)


def test_plain_poset_is_truncation_m():
    # Dropping the bottom m layers of the gap poset of (n + 1, m(n + 1) + 1)
    # leaves that of (n, mn + 1), each layer up by m and each label up by
    # 1 + m(n + 1) + its plain layer: the index m of verify_stat_recursions.
    def shifted(m, n):
        a, t, r, g = _path_totals(n, m * n + 1)[-1]
        return a, t, r + m * t, g + r + (m * (n + 1) + 1) * t

    for m in range(1, 9):
        for n in range(13):
            # cap 0 is truncation m: members m layers, (n + 1)m labels higher
            a, t, r, g = _path_totals(n + 1, m * (n + 1) + 1)[0]
            assert (a, t, r + m * t, g + (n + 1) * m * t) == shifted(m, n)
    cases = 0
    for m in range(1, 5):
        n = 0
        while (n - 1) * m * n // 2 <= 21:   # the plain poset's size
            whole = gap_poset(n + 1, m * (n + 1) + 1)
            top = induced_subposet(
                whole, [p for p in whole.elements if p // (n + 1) >= m])
            assert len(top.elements) == (n - 1) * m * n // 2
            count, occupancy, size_total = _ideal_totals(top)
            layer_total = sum(k * (e // (n + 1))
                              for k, e in zip(occupancy, top.elements))
            assert (count, sum(occupancy), layer_total, size_total) \
                == shifted(m, n), (m, n)
            cases += 1
            n += 1
    assert cases == 23


def test_compute_stats_hand_examples():
    rec = stats_of(FamilyId(2, 0, 2))
    assert (rec.ideal_count, rec.member_sum, rec.layer_sum, rec.core_size_sum) == (3, 3, 1, 4)
    rec = stats_of(FamilyId(3, 0, 2))
    assert (rec.ideal_count, rec.member_sum, rec.layer_sum, rec.core_size_sum) == (4, 6, 4, 10)
    for m in (1, 2, 5):
        rec = stats_of(FamilyId(m, 0, 0))
        assert (rec.ideal_count, rec.member_sum, rec.layer_sum, rec.core_size_sum) == (1, 0, 0, 0)


@pytest.mark.parametrize("family", [FamilyId(2, 0, 3), FamilyId(2, 1, 2),
                                    FamilyId(3, 1, 2), FamilyId(3, 2, 2),
                                    FamilyId(1, 0, 4)])
def test_compute_stats_against_subset_filter(family):
    rec = stats_of(family)
    assert (rec.ideal_count, rec.member_sum, rec.layer_sum,
            rec.core_size_sum) == brute_stats(family)


def forbidden(*args):
    raise AssertionError("called before the guard")


def test_compute_stats_guard(monkeypatch, capsys):
    # The grid commands refuse an over-limit --m or grid before computing
    # anything: neither the statistics nor the series may be called.
    for module in ("simcores.cli", "simcores.stats", "simcores.series"):
        module = importlib.import_module(module)
        for name in ("compute_stats", "stat_series"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)
    for command in ("stats", "recursions", "cross-check"):
        for m, max_n, message in [(41, 1, "--m is 41"),
                                  (4000, 1, "--m is 4000"),
                                  (1000000, 0, "--m is 1000000"),
                                  (6, 41, "m=6, n<=41 grid is 426195")]:
            code = cli.main([command, "--m", str(m), "--max-n", str(max_n)])
            out, err = capsys.readouterr()
            assert code == 2 and out == "", (command, m, max_n)
            assert message in err and "above the guard" in err


def test_core_count_examples():
    assert core_count(3, 7) == 12
    assert core_count(4, 9) == 55
    for b in (2, 5, 9):
        assert core_count(1, b) == 1
    with pytest.raises(NonCoprimeError):
        core_count(6, 4)
    assert core_count(0, 1) == 1   # fuss_catalan_number(m, 0) relies on it
    for a, b in ((3, -1), (1, -1), (-1, 2)):
        with pytest.raises(ValueError, match="nonnegative"):
            core_count(a, b)


def test_core_count_matches_plain_family_counts():
    for m in range(1, 5):
        for n in range(7):
            rec = stats_of(FamilyId(m, 0, n))
            expected = 1 if n == 0 else core_count(n, m * n + 1)
            assert rec.ideal_count == expected


def test_average_size_check_examples():
    chk = average_size_check(3, 7)
    assert chk == (3, 7, 12, 66, True)
    assert chk.total == 66 and chk.count == 12 and chk.matches
    # 24 * 66 == (3-1)(7-1)(3+7+1) * 12: the average is 11/2
    assert 24 * chk.total == 2 * 6 * 11 * chk.count
    assert cli._ratio(chk.total, chk.count) == "11/2"
    assert average_size_check(2, 7).total == 10
    # a - 1 = 0: both sides of the equation are zero
    chk = average_size_check(1, 5)
    assert chk == (1, 5, 1, 0, True)
    assert chk.total == 0 and chk.matches


def test_average_size_check_guard(monkeypatch, capsys):
    # the library takes any pair and rejects only a bad one ...
    assert average_size_check(11, 14).matches
    with pytest.raises(NonCoprimeError):
        average_size_check(4, 6)
    with pytest.raises(ValueError, match="positive"):
        average_size_check(0, 5)
    # ... and `cores` guards the parts it would list, gaps times cores,
    # before any work: (3, 700) would list 699 * 82,017 parts
    assert cli.MAX_LISTED_GAPS * (cli.MAX_LISTED_GAPS + 1) \
        <= cli.MAX_LISTED_PARTS \
        < (cli.MAX_LISTED_GAPS + 1) * (cli.MAX_LISTED_GAPS + 2)
    with monkeypatch.context() as patch:
        patch.setattr(stats, "average_size_check", forbidden)
        assert cli.main(["cores", "--a", "3", "--b", "700"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "(3, 700)-core listing is 57329883, above " \
            "the guard of 6250000" in err
    # a chain of 1001 gaps has only 1002 cores: 1,003,002 parts
    assert cli.main(["cores", "--a", "2", "--b", "2003"]) == 0
    out, _ = capsys.readouterr()
    assert out.startswith("(2, 2003)-cores: 1002\n")


def test_average_size_check_long_chain():
    # the gap poset of (2, 2003) is a chain of 1001 elements, deeper than
    # Python's recursion limit
    chk = average_size_check(2, 2003)
    assert chk.count == 1002 and chk.matches


def armstrong(a, b, total):
    """The oracle for `matches`: Armstrong's rational equation."""
    return total == Fraction((a - 1) * (b - 1) * (a + b + 1), 24) \
        * core_count(a, b)


def test_extended_average_size_report_mode():
    # Armstrong's formula holds for every coprime pair (Johnson,
    # arXiv:1502.07934), not only for the slope family the paper proves;
    # Fraction is the oracle for `matches` and for the average `cores` prints
    pairs = [(a, b) for b in range(2, 61) for a in range(1, b)
             if gcd(a, b) == 1]
    assert len(pairs) == 1101
    checks = [average_size_check(*p) for p in pairs]
    mismatches = [p for p, chk in zip(pairs, checks) if not chk.matches]
    assert mismatches == []
    for (a, b), chk in zip(pairs, checks):
        assert chk.matches == armstrong(a, b, chk.total), (a, b)
        assert chk.count == core_count(a, b), (a, b)
        assert cli._ratio(chk.total, chk.count) \
            == str(Fraction(chk.total, chk.count)), (a, b)


def test_average_size_check_refuses_a_total_one_off(monkeypatch):
    real = stats._path_totals
    for delta in (-1, 1):
        monkeypatch.setattr(stats, "_path_totals", lambda a, b: [
            (c, t, r, g + delta) for c, t, r, g in real(a, b)])
        for a, b in [(1, 2), (2, 3), (3, 7), (13, 29)]:
            chk = average_size_check(a, b)
            assert not chk.matches and not armstrong(a, b, chk.total), (a, b)


def test_size_total_equals_partition_size_total():
    for family in (FamilyId(2, 0, 3), FamilyId(2, 1, 3), FamilyId(3, 1, 2)):
        rec = stats_of(family)
        direct = sum(sum(ideal_to_partition(members))
                     for members in order_ideals(family_poset(family)))
        assert rec.core_size_sum == direct


def test_stat_record_bounds():
    for m in (1, 2, 3):
        for j in range(m):
            for n in range(5):
                fid = FamilyId(m, j, n)
                rec = stats_of(fid)
                assert rec.ideal_count >= 1
                assert min(rec.member_sum, rec.layer_sum, rec.core_size_sum) >= 0
                whole = sum(family_poset(fid).elements)
                assert rec.core_size_sum <= whole * rec.ideal_count


def test_statistics_monotone_on_frozen_range():
    for m in (1, 2, 3):
        for j in range(m):
            rows = [stats_of(FamilyId(m, j, n)) for n in range(6)]
            for field in ("ideal_count", "member_sum", "layer_sum", "core_size_sum"):
                vals = [getattr(r, field) for r in rows]
                assert vals == sorted(vals)


def test_member_join_recursion_hand_instance():
    # slope 2, n = 2: the member-sum convolution evaluates to 3
    a = {n: stats_of(FamilyId(2, 0, n)) for n in range(3)}
    b = {n: stats_of(FamilyId(2, 1, n)) for n in range(2)}
    rhs = sum(b[i].member_sum * a[1 - i].ideal_count
              + i * b[i].ideal_count * a[1 - i].ideal_count
              + b[i].ideal_count * a[1 - i].member_sum for i in range(2))
    assert rhs == 3 == a[2].member_sum
    checks = {(c.name, c.n): c for c in verify_stat_recursions(2, 2)}
    entry = checks[("member-join", 2)]
    assert entry.lhs == entry.rhs == 3 and entry.passed


def convolution_recursions(m, n_max):
    """Oracle for `verify_stat_recursions`: each recursion as a sum of
    products of grid totals, in the report's row order."""
    recs = {(rec.j, rec.n): rec[3:] for rec in compute_stats(m, n_max)}
    for n in range(n_max + 1):
        # the plain poset read as truncation m
        a, t, r, g = recs[0, n]
        recs[m, n] = a, t, r + m * t, g + r + (m * (n + 1) + 1) * t

    def A(j, n): return recs[j, n][0]
    def T(j, n): return recs[j, n][1]
    def R(j, n): return recs[j, n][2]
    def G(j, n): return recs[j, n][3]

    checks = []

    def add(name, n, lhs, rhs):
        checks.append((name, m, n, lhs, rhs, lhs == rhs))

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


@pytest.mark.parametrize("m,n_max", [(m, n) for m in range(1, 9)
                                     for n in range(9)] + [(40, 10)])
def test_recursions_match_the_convolution_oracle(m, n_max):
    # n_max = 0 runs the series side at order 0
    assert [tuple(c) for c in verify_stat_recursions(m, n_max)] \
        == convolution_recursions(m, n_max)


def test_recursions_fail_exactly_where_a_grid_total_is_off(monkeypatch, capsys):
    # core_size_sum at (j = 1, n = 2) one too large: it is the left side of
    # size-step[j=1] at n = 2 and a term of size-join at every n >= 3
    real = stats.compute_stats

    def off(m, n_max):
        return tuple(rec._replace(core_size_sum=rec.core_size_sum + 1)
                     if (rec.j, rec.n) == (1, 2) else rec
                     for rec in real(m, n_max))

    monkeypatch.setattr(stats, "compute_stats", off)
    assert cli.main(["recursions", "--m", "3", "--max-n", "5"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 6 * 3 * 4
    failed = {line for line in lines if line.startswith("FAIL ")}
    assert {line.split(":")[0] for line in failed} == {
        "FAIL size-step[j=1] n=2", "FAIL size-join n=3",
        "FAIL size-join n=4", "FAIL size-join n=5"}
    assert all(line.startswith("ok   ") for line in set(lines) - failed)


@pytest.mark.parametrize("m,n_max", [(2, 4), (3, 3)])
def test_recursions_quick(m, n_max):
    checks = verify_stat_recursions(m, n_max)
    assert checks and all(c.passed for c in checks)


def test_recursions_degenerate_slope_one():
    checks = verify_stat_recursions(1, 6)
    names = {c.name for c in checks}
    assert names == {"count-join", "member-join"}
    assert all(c.passed for c in checks)


def test_layer_and_size_joins_hold_at_m_1():
    # left out of the m = 1 report only to keep its output; stat_series
    # solves R[0] and G[0] from these joins
    cols = [series(c) for c in list(zip(*compute_stats(1, 8)))[3:]]
    A, T, R, G = ([s] for s in cols)   # the join is the top step here
    for stat, S in (("layer", R), ("size", G)):
        rhs = recursion_rhs(stat, 0, A, T, R, G)
        assert rhs[:9] == S[0] and any(S[0]), stat


def test_stat_record_fields():
    rec = stats_of(FamilyId(2, 0, 2))
    assert isinstance(rec, StatRecord)
    assert StatRecord._fields == ("m", "j", "n", "ideal_count", "member_sum",
                                  "layer_sum", "core_size_sum")
    assert rec[:3] == (rec.m, rec.j, rec.n) == (2, 0, 2)


def test_one_pass_per_index_serves_every_truncation(monkeypatch, capsys):
    # a grid costs one lattice-path pass per a = 0 .. n_max + 1, however
    # many truncations it has, and each grid command computes one grid
    passes, path_totals = [], stats._path_totals

    def counted(a, b):
        passes.append((a, b))
        return path_totals(a, b)

    monkeypatch.setattr(stats, "_path_totals", counted)
    for m in (1, 2, 6, 40):
        for n_max in (0, 3, 10):
            compute_stats.cache_clear()
            passes.clear()
            assert len(compute_stats(m, n_max)) == m * (n_max + 1)
            assert passes == [(a, m * a + 1) for a in range(n_max + 2)]

    grids = []

    def recorded(m, n_max):
        grids.append((m, n_max))
        return compute_stats(m, n_max)

    for module in ("simcores.stats", "simcores.series"):
        monkeypatch.setattr(f"{module}.compute_stats", recorded)
    for command in ("stats", "recursions", "cross-check"):
        grids.clear()
        assert cli.main([command, "--m", "6", "--max-n", "4"]) == 0, command
        capsys.readouterr()
        assert grids == [(6, 4)], command


def test_compute_stats_cache_is_bounded():
    compute_stats.cache_clear()
    for n_max in range(40):
        compute_stats(2, n_max)
    info = compute_stats.cache_info()
    assert info.maxsize is not None and info.currsize == info.maxsize < 40
