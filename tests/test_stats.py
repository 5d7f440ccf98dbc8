from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest

from simcores.betaset import ideal_to_partition
from simcores.posets import FamilyId, NonCoprimeError, family_poset, order_ideals
from simcores.stats import (EnumerationTooLargeError, StatRecord,
                            average_size_check, compute_stats, core_count,
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


def test_compute_stats_guard():
    with pytest.raises(EnumerationTooLargeError):
        compute_stats(FamilyId(2, 0, 20), max_poset_size=30)


def test_core_count_examples():
    assert core_count(3, 7) == 12
    assert core_count(4, 9) == 55
    for b in (2, 5, 9):
        assert core_count(1, b) == 1
    with pytest.raises(NonCoprimeError):
        core_count(6, 4)


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


def test_average_size_check_guard():
    with pytest.raises(EnumerationTooLargeError):
        average_size_check(11, 14)
    with pytest.raises(EnumerationTooLargeError):
        average_size_check(3, 7, max_poset_size=5)
    assert average_size_check(3, 7, max_poset_size=None).matches


def test_average_size_check_long_chain():
    # the gap poset of (2, 2003) is a chain of 1001 elements, deeper than
    # Python's recursion limit
    chk = average_size_check(2, 2003, max_poset_size=None)
    assert chk.count == 1002 and chk.matches


def test_is_slope_pair():
    assert is_slope_pair(2, 5)
    assert is_slope_pair(5, 2)
    assert is_slope_pair(1, 9)
    assert is_slope_pair(3, 4)
    assert not is_slope_pair(5, 7)
    assert not is_slope_pair(3, 8)


def test_extended_average_size_report_mode():
    # Pairs outside the slope family run in report mode: evaluated and
    # printed, never asserted.
    report = {}
    for a, b in [(3, 5), (5, 7), (5, 8), (4, 7), (7, 9)]:
        assert gcd(a, b) == 1 and not is_slope_pair(a, b)
        report[(a, b)] = average_size_check(a, b).matches
    print("extended average-size report:", report)


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
