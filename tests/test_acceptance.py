"""Acceptance suite: one test per promised criterion, at full scale.

Every arithmetic check below is exact; there are no tolerances.  Each test
prints a single PASS line once its assertions hold (pytest prints the
captured line, plus the failure itself, if a criterion breaks).
"""

import time
from fractions import Fraction
from math import comb, gcd

from oracles import (above_prefix_part, assert_isomorphism, instance, is_core,
                     size_via_ideal)
from simcores.betaset import ideal_to_partition, partition_to_ideal
from simcores.posets import FamilyId, family_poset, gap_poset, order_ideals
from simcores.series import check_identities, cross_check, stat_series
from simcores.stats import average_size_check, verify_stat_recursions

DURATIONS = {}


def tracked(label):
    def deco(fn):
        def wrapper():
            start = time.perf_counter()
            fn()
            DURATIONS[label] = time.perf_counter() - start
            print(f"criterion {label}: PASS ({DURATIONS[label]:.2f} s)")
        wrapper.__name__ = fn.__name__
        return wrapper
    return deco


def coprime_pairs(max_sum):
    return [(a, b) for a in range(2, max_sum) for b in range(a + 1, max_sum)
            if a + b <= max_sum and gcd(a, b) == 1]


@tracked("1 ideal counts")
def test_criterion_01_ideal_counts_closed_form():
    for a, b in coprime_pairs(16):
        count = len(order_ideals(gap_poset(a, b)))
        assert count * (a + b) == comb(a + b, a), (a, b)


@tracked("2 worked example")
def test_criterion_02_worked_example():
    poset = gap_poset(3, 7)
    assert poset.elements == (1, 2, 4, 5, 8, 11)
    assert set(poset.covers) == {(11, 4), (11, 8), (8, 1), (8, 5), (5, 2), (4, 1)}
    assert partition_to_ideal((5, 3, 1, 1)) == frozenset({8, 5, 2, 1})
    assert size_via_ideal({8, 5, 2, 1}) == 10


@tracked("3 average size")
def test_criterion_03_average_size_formula():
    spot = {}
    for k in range(1, 19):
        for m in range(1, 19):
            if (m + 1) * k > 18:
                break
            a, b = k, m * k + 1
            chk = average_size_check(a, b)
            rhs = Fraction(m * k * (k - 1) * ((m + 1) * k + 2),
                           24 * (m * k + 1)) * comb((m + 1) * k, k)
            assert chk.total == rhs and chk.matches, (a, b)
            spot[(a, b)] = chk.total
    assert spot[(2, 5)] == 4
    assert spot[(2, 7)] == 10
    assert spot[(3, 7)] == 66


@tracked("4 bijection soundness")
def test_criterion_04_bijection_soundness():
    for a, b in coprime_pairs(16):
        forbidden = {a, b}
        for members in order_ideals(gap_poset(a, b)):
            parts = ideal_to_partition(members)
            assert partition_to_ideal(parts) == frozenset(members)
            assert is_core(parts, forbidden)
            assert size_via_ideal(members) == sum(parts)


@tracked("5 main identity")
def test_criterion_05_main_identity_through_order_12():
    for m in range(1, 7):
        bundle = stat_series(m, 12)
        f = bundle.powers[1]
        fppp = f.derivative().derivative().derivative()
        fpp = f.derivative().derivative()
        residual = (m * (m + 1) * fppp.shift(3) + m * (2 * m + 4) * fpp.shift(2)
                    - 24 * bundle.size[0])
        assert residual.order >= 12
        assert not any(residual), m


@tracked("6 identity ledger")
def test_criterion_06_full_identity_ledger():
    for m in (1, 2, 3):
        checks = check_identities(m, 12)
        failed = [c for c in checks if not c.passed]
        assert not failed, failed
        names = {c.identity for c in checks}
        required = {"defining-equation", "closed-form-count",
                    "first-derivative", "second-derivative", "third-derivative",
                    "member-bottom-closed-form", "layer-bottom-closed-form",
                    "size-bottom-closed-form", "member-weighted-sum",
                    "member-derivative-weighted-sum", "layer-weighted-sum",
                    "average-size-identity"}
        if m >= 2:
            required |= {"member-join-relation", "member-top-relation",
                         "layer-join-relation", "layer-top-relation",
                         "size-join-relation", "size-top-relation",
                         "trimmed-count-power[j=1]", "member-closed-form[j=1]",
                         "layer-closed-form[j=1]"}
        if m == 2:
            required |= {"explicit-squared-count", "explicit-member-bottom",
                         "explicit-member-top", "explicit-member-top-derivative",
                         "explicit-member-join", "explicit-layer-bottom",
                         "explicit-layer-top", "explicit-layer-join",
                         "explicit-size-bottom", "explicit-size-top",
                         "explicit-size-from-derivatives",
                         "explicit-first-derivative",
                         "explicit-second-derivative",
                         "explicit-third-derivative"}
        if m >= 3:
            required |= {"member-step-relation[j=1]", "layer-step-relation[j=1]",
                         "size-step-relation[j=1]"}
        assert required <= names, required - names


@tracked("7 series vs enumeration")
def test_criterion_07_cross_check_all_statistics():
    for m in (1, 2, 3):
        rows = cross_check(m, 6)
        assert all(r.passed for r in rows), [r for r in rows if not r.passed]
        seen = {(r.j, r.n, r.statistic) for r in rows}
        assert len(seen) == m * 7 * 4


@tracked("8 proof recursions")
def test_criterion_08_recursion_suite():
    for m, n_max in ((2, 7), (3, 5)):
        checks = verify_stat_recursions(m, n_max)
        assert checks
        failed = [c for c in checks if not c.passed]
        assert not failed, failed


@tracked("9 isomorphism catalog")
def test_criterion_09_isomorphism_catalog():
    instances = {"trimmed-reflection": ((2,), (3,), (5,)),
                 "above-prefix": ((6, 3), (5, 2), (4, 4)),
                 "detached": ((6, 3), (5, 2), (7, 3)),
                 "trimmed-above-prefix": ((5, 4), (4, 3), (3, 4)),
                 "trimmed-detached": ((5, 4), (4, 2), (6, 3))}
    for name, cases in instances.items():
        for indices in cases:
            assert_isomorphism(*instance(name, *indices))
    assert above_prefix_part(gap_poset(6, 13), 3).elements == (7, 8, 14, 20)
    assert above_prefix_part(family_poset(FamilyId(2, 1, 5)), 4).elements == \
        (14, 15, 20, 21, 27, 33)


@tracked("10 runtime budget")
def test_criterion_10_runtime_budget():
    total = sum(DURATIONS.values())
    print(f"acceptance criteria cumulative runtime: {total:.2f} s")
    assert total < 60.0
