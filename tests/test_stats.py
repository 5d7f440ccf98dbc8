import argparse
import importlib
from fractions import Fraction
from itertools import combinations
from math import comb, gcd

import pytest

from simcores import cli
from simcores.betaset import ideal_to_partition
from simcores.posets import (FamilyId, NonCoprimeError, _ideal_masks,
                             family_poset, gap_poset, induced_subposet,
                             order_ideals)
from simcores.series import cross_check
from simcores.stats import (EnumerationTooLargeError, StatRecord,
                            _path_totals, average_size_check, compute_stats, core_count,
                            is_slope_pair, verify_stat_recursions)


def brute_stats(family):
    """Subset-filter oracle for the four statistics; tiny posets only."""
    poset = family_poset(family)
    div = family.layer_divisor
    count = members = layers = sizes = 0
    for r in range(len(poset) + 1):
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


def enumerated_stats(family):
    """Enumeration oracle for the four statistics: walk every ideal."""
    poset = family_poset(family)
    count, occupancy, size_total = _ideal_totals(poset)
    div = family.layer_divisor
    layer_total = sum(k * (e // div) for k, e in zip(occupancy, poset.elements))
    return count, sum(occupancy), layer_total, size_total


def test_path_totals_against_enumeration_on_the_guarded_grid():
    families = 0
    for m in range(1, 7):
        for j in range(m):
            n = 0
            while len(family_poset(FamilyId(m, j, n))) <= 60:
                fid = FamilyId(m, j, n)
                rec = compute_stats(fid)
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


def test_guard_size_is_family_size(monkeypatch):
    # the CLI's grid guard fires exactly above the elements of the family
    # posets it covers
    for m in range(1, 7):
        elements = 0
        for n in range(14):
            layer = sum(len(family_poset(FamilyId(m, j, n))) for j in range(m))
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
                                            (cross_check, 2, -1)])
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
        assert not is_slope_pair(a, b)
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
        a, t, r, g = _path_totals(n, m * n + 1)
        return a, t, r + m * t, g + r + (m * (n + 1) + 1) * t

    for m in range(1, 9):
        for n in range(13):
            assert _path_totals(n + 1, m * (n + 1) + 1, m) == shifted(m, n)
    cases = 0
    for m in range(1, 5):
        n = 0
        while (n - 1) * m * n // 2 <= 21:   # the plain poset's size
            whole = gap_poset(n + 1, m * (n + 1) + 1)
            top = induced_subposet(
                whole, [p for p in whole.elements if p // (n + 1) >= m])
            assert len(top) == (n - 1) * m * n // 2
            count, occupancy, size_total = _ideal_totals(top)
            layer_total = sum(k * (e // (n + 1))
                              for k, e in zip(occupancy, top.elements))
            assert (count, sum(occupancy), layer_total, size_total) \
                == shifted(m, n), (m, n)
            cases += 1
            n += 1
    assert cases == 23


def test_compute_stats_hand_examples():
    rec = compute_stats(FamilyId(2, 0, 2))
    assert (rec.ideal_count, rec.member_sum, rec.layer_sum, rec.core_size_sum) == (3, 3, 1, 4)
    rec = compute_stats(FamilyId(3, 0, 2))
    assert (rec.ideal_count, rec.member_sum, rec.layer_sum, rec.core_size_sum) == (4, 6, 4, 10)
    for m in (1, 2, 5):
        rec = compute_stats(FamilyId(m, 0, 0))
        assert (rec.ideal_count, rec.member_sum, rec.layer_sum, rec.core_size_sum) == (1, 0, 0, 0)


@pytest.mark.parametrize("family", [FamilyId(2, 0, 3), FamilyId(2, 1, 2),
                                    FamilyId(3, 1, 2), FamilyId(3, 2, 2),
                                    FamilyId(1, 0, 4)])
def test_compute_stats_against_subset_filter(family):
    rec = compute_stats(family)
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
            rec = compute_stats(FamilyId(m, 0, n))
            expected = 1 if n == 0 else core_count(n, m * n + 1)
            assert rec.ideal_count == expected


def test_average_size_check_examples():
    chk = average_size_check(3, 7)
    assert chk.total == 66 and chk.average == Fraction(11, 2) and chk.matches
    assert average_size_check(2, 7).total == 10
    chk = average_size_check(1, 5)
    assert chk.total == 0 and chk.rhs == 0 and chk.matches


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
        patch.setattr(cli, "average_size_check", forbidden)
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


def test_is_slope_pair():
    assert is_slope_pair(2, 5)
    assert is_slope_pair(5, 2)
    assert is_slope_pair(1, 9)
    assert is_slope_pair(3, 4)
    assert not is_slope_pair(5, 7)
    assert not is_slope_pair(3, 8)


def test_extended_average_size_report_mode():
    # Armstrong's formula holds for every coprime pair (Johnson,
    # arXiv:1502.07675), not only for the slope family the paper proves
    pairs = [(a, b) for b in range(2, 61) for a in range(1, b)
             if gcd(a, b) == 1]
    assert len(pairs) == 1101
    mismatches = [p for p in pairs if not average_size_check(*p).matches]
    assert mismatches == []


def test_size_total_equals_partition_size_total():
    for family in (FamilyId(2, 0, 3), FamilyId(2, 1, 3), FamilyId(3, 1, 2)):
        rec = compute_stats(family)
        direct = sum(sum(ideal_to_partition(members))
                     for members in order_ideals(family_poset(family)))
        assert rec.core_size_sum == direct


def test_stat_record_bounds():
    for m in (1, 2, 3):
        for j in range(m):
            for n in range(5):
                fid = FamilyId(m, j, n)
                rec = compute_stats(fid)
                assert rec.ideal_count >= 1
                assert min(rec.member_sum, rec.layer_sum, rec.core_size_sum) >= 0
                whole = sum(family_poset(fid).elements)
                assert rec.core_size_sum <= whole * rec.ideal_count


def test_statistics_monotone_on_frozen_range():
    for m in (1, 2, 3):
        for j in range(m):
            rows = [compute_stats(FamilyId(m, j, n)) for n in range(6)]
            for field in ("ideal_count", "member_sum", "layer_sum", "core_size_sum"):
                vals = [getattr(r, field) for r in rows]
                assert vals == sorted(vals)


def test_member_join_recursion_hand_instance():
    # slope 2, n = 2: the member-sum convolution evaluates to 3
    a = {n: compute_stats(FamilyId(2, 0, n)) for n in range(3)}
    b = {n: compute_stats(FamilyId(2, 1, n)) for n in range(2)}
    rhs = sum(b[i].member_sum * a[1 - i].ideal_count
              + i * b[i].ideal_count * a[1 - i].ideal_count
              + b[i].ideal_count * a[1 - i].member_sum for i in range(2))
    assert rhs == 3 == a[2].member_sum
    checks = {(c.name, c.n): c for c in verify_stat_recursions(2, 2)}
    entry = checks[("member-join", 2)]
    assert entry.lhs == entry.rhs == 3 and entry.passed


@pytest.mark.parametrize("m,n_max", [(2, 4), (3, 3)])
def test_recursions_quick(m, n_max):
    checks = verify_stat_recursions(m, n_max)
    assert checks and all(c.passed for c in checks)


def test_recursions_degenerate_slope_one():
    checks = verify_stat_recursions(1, 6)
    names = {c.name for c in checks}
    assert names == {"count-join", "member-join"}
    assert all(c.passed for c in checks)


def test_stat_record_fields():
    rec = compute_stats(FamilyId(2, 0, 2))
    assert isinstance(rec, StatRecord)
    assert rec.family == FamilyId(2, 0, 2)
