from itertools import combinations
from math import comb, gcd

import pytest

from oracles import (above_prefix_part, assert_isomorphism, detached_part,
                     instance, minimal_elements)
from simcores.posets import (ElementNotInPosetError, FamilyId, GapPoset,
                             InvalidFamilyError, NonCoprimeError, _closure,
                             _ideal_masks, abacus_runners, family_poset,
                             gap_count, gap_poset, induced_subposet,
                             order_ideals, to_dot)
from simcores.series import fuss_catalan_series


def coprime_pairs(max_sum):
    return [(a, b) for a in range(2, max_sum) for b in range(a + 1, max_sum)
            if a + b <= max_sum and gcd(a, b) == 1]


def _representable(d: int, a: int, b: int) -> bool:
    """Is d a nonnegative integer combination of a and b?"""
    if d < 0:
        return False
    if a == 1 or b == 1:
        return True
    while d >= 0:
        if d % a == 0:
            return True
        d -= b
    return False


def reduced_covers(poset):
    """Oracle Hasse diagram: the transitive reduction of the semigroup order
    on `poset.elements`, cubic in the size and blind to convexity."""
    keep = poset.elements
    k = len(keep)
    less = [[q < p and _representable(p - q, poset.a, poset.b) for p in keep]
            for q in keep]
    covers = []
    for t in range(k):
        for i in range(k):
            if less[i][t] and not any(less[i][u] and less[u][t] for u in range(k)):
                covers.append((keep[t], keep[i]))
    return tuple(sorted(covers))


def brute_ideals(poset):
    """Ideals by filtering all subsets; only usable on tiny posets."""
    found = []
    elems = poset.elements
    for r in range(len(elems) + 1):
        for sub in combinations(elems, r):
            chosen = set(sub)
            if all(lo in chosen for hi, lo in poset.covers if hi in chosen):
                found.append(sub)
    found.sort(key=lambda members: (len(members), members))
    return tuple(found)


def test_gap_poset_worked_example():
    poset = gap_poset(3, 7)
    assert poset.elements == (1, 2, 4, 5, 8, 11)
    assert set(poset.covers) == {(11, 4), (11, 8), (8, 1), (8, 5), (5, 2), (4, 1)}


def test_gap_poset_is_an_immutable_value():
    poset = GapPoset(3, 7, gap_poset(3, 7).elements)
    assert poset == gap_poset(3, 7) and hash(poset) == hash(gap_poset(3, 7))
    assert poset != GapPoset(3, 8, poset.elements)
    assert poset.covers == gap_poset(3, 7).covers
    a, b, elements = poset
    assert (a, b, elements) == poset == (3, 7, (1, 2, 4, 5, 8, 11))
    assert poset._replace(b=8) == GapPoset(3, 8, poset.elements)
    with pytest.raises(AttributeError):
        poset.a = 4
    with pytest.raises(AttributeError):
        del poset.elements
    assert repr(poset) == "GapPoset(a=3, b=7, elements=(1, 2, 4, 5, 8, 11))"


def test_gap_poset_trivial_and_figure_example():
    assert gap_poset(1, 5).elements == ()
    assert gap_poset(4, 9).elements == (1, 2, 3, 5, 6, 7, 10, 11, 14, 15, 19, 23)


def test_gap_poset_rejects_noncoprime():
    with pytest.raises(NonCoprimeError):
        gap_poset(2, 4)
    with pytest.raises(NonCoprimeError):
        gap_poset(6, 9)


def test_gap_count_formula():
    for a, b in coprime_pairs(24):
        assert len(gap_poset(a, b).elements) == gap_count(a, b) == (a - 1) * (b - 1) // 2
    assert gap_count(1, 1) == gap_count(1, 9) == 0
    with pytest.raises(NonCoprimeError):
        gap_count(6, 9)
    with pytest.raises(ValueError, match="positive"):
        gap_count(0, 5)


def test_gap_set_matches_sylvester():
    # Sylvester: each gap is a*b - x*a - y*b for exactly one x, y >= 1
    pairs = [(a, b) for a in range(1, 122) for b in range(1, 122)
             if gcd(a, b) == 1 and (a - 1) * (b - 1) // 2 <= 60]
    assert (2, 121) in pairs and (121, 2) in pairs and (11, 13) in pairs
    for a, b in pairs:
        sylvester = sorted(g for x in range(1, b) for y in range(1, a)
                           if (g := a * b - x * a - y * b) > 0)
        assert list(gap_poset(a, b).elements) == sylvester, (a, b)
        # only the nonempty runners, so a pair like (121, 1) has none
        lengths = [t for t, _ in abacus_runners(a, b)]
        assert min(lengths, default=1) >= 1, (a, b)
        assert sum(lengths) == len(sylvester), (a, b)


def test_order_ideals_examples():
    assert order_ideals(gap_poset(2, 5)) == ((), (1,), (1, 3))
    assert order_ideals(gap_poset(1, 7)) == ((),)
    assert len(order_ideals(gap_poset(3, 7))) == 12


def test_order_ideals_against_subset_filter():
    for a, b in [(2, 5), (2, 7), (3, 4), (3, 5), (4, 5)]:
        assert order_ideals(gap_poset(a, b)) == brute_ideals(gap_poset(a, b))


def test_order_ideals_downward_closed():
    poset = gap_poset(4, 9)
    for members in order_ideals(poset):
        chosen = set(members)
        for hi, lo in poset.covers:
            if hi in chosen:
                assert lo in chosen


def test_ideal_masks_cache_is_bounded():
    posets = [gap_poset(2, b) for b in range(3, 83, 2)]   # 40 chains
    for poset in posets:
        order_ideals(poset)
    info = _ideal_masks.cache_info()
    assert info.maxsize is not None and info.currsize <= info.maxsize <= 16


def test_poset_caches_are_bounded():
    for m in range(1, 101):   # 100 chains of m gaps, each built by both
        family_poset(FamilyId(m, 0, 2))
    for cache in (gap_poset, family_poset):
        info = cache.cache_info()
        assert info.maxsize is not None and info.currsize == info.maxsize < 100


def test_order_ideals_canonical_order():
    pairs = [(a, b) for a, b in coprime_pairs(64) if gap_count(a, b) <= 30]
    assert (6, 13) in pairs and (2, 61) in pairs
    for a, b in pairs:
        ideals = order_ideals(gap_poset(a, b))
        assert list(ideals) == sorted(ideals, key=lambda t: (len(t), t)), (a, b)
        assert len(set(ideals)) == len(ideals), (a, b)


def test_family_poset_examples():
    assert family_poset(FamilyId(2, 1, 3)).elements == (5, 6, 7, 10, 11, 14, 15, 19, 23)
    assert family_poset(FamilyId(2, 0, 4)) == gap_poset(4, 9)
    assert family_poset(FamilyId(3, 2, 1)).elements == (5,)
    assert family_poset(FamilyId(2, 0, 0)).elements == ()


def _branchwise_family_poset(m, j, n):
    """The family poset built branch by branch, from n rather than from
    the layer divisor."""
    if j == 0:
        if n == 0:
            return GapPoset(1, m + 1, ())
        return gap_poset(n, m * n + 1)
    big = gap_poset(n + 1, m * (n + 1) + 1)
    return induced_subposet(big, (p for p in big.elements if p // (n + 1) >= j))


def test_family_poset_matches_branchwise_construction():
    for m in range(1, 7):
        for j in range(m):
            for n in range(9):
                expected = _branchwise_family_poset(m, j, n)
                assert family_poset(FamilyId(m, j, n)) == expected, (m, j, n)


def test_family_poset_rejects_bad_index():
    with pytest.raises(InvalidFamilyError):
        FamilyId(2, 2, 3)
    with pytest.raises(InvalidFamilyError):
        FamilyId(2, -1, 3)
    with pytest.raises(InvalidFamilyError):
        FamilyId(0, 0, 3)
    with pytest.raises(InvalidFamilyError):
        FamilyId(2, 1, 3)._replace(j=2)


def test_trimmed_ideal_counts_closed_form():
    for n in range(7):
        count = len(order_ideals(family_poset(FamilyId(2, 1, n))))
        assert count == comb(3 * n + 2, n + 1) // (3 * n + 2)


def test_family_ideal_counts_match_series_powers():
    for m in (1, 2, 3):
        f = fuss_catalan_series(m, 6)
        for j in range(m):
            power = f ** (m - j + 1) if j else f
            for n in range(7):
                count = len(order_ideals(family_poset(FamilyId(m, j, n))))
                assert count == power[n]


def test_minimal_elements():
    assert minimal_elements(gap_poset(6, 13)) == (1, 2, 3, 4, 5)
    assert minimal_elements(family_poset(FamilyId(2, 1, 5))) == (7, 8, 9, 10, 11)


def test_subposet_worked_examples():
    p6 = gap_poset(6, 13)
    assert above_prefix_part(p6, 3).elements == (7, 8, 14, 20)
    assert detached_part(p6, 3).elements == (4, 5, 10, 11, 17, 23)
    q5 = family_poset(FamilyId(2, 1, 5))
    assert above_prefix_part(q5, 4).elements == (14, 15, 20, 21, 27, 33)
    assert detached_part(q5, 4).elements == (11, 17)


def test_subposet_range_errors():
    with pytest.raises(ValueError):
        above_prefix_part(gap_poset(6, 13), 8)
    with pytest.raises(ValueError):
        detached_part(gap_poset(6, 13), 6)


def test_trimmed_reflection_worked_instance():
    source, target, mapping = instance("trimmed-reflection", 3)
    assert sorted(mapping.values()) == [1, 2, 3, 5, 6, 9, 10, 13, 17]
    assert target == gap_poset(4, 7)
    assert_isomorphism(source, target, mapping)


@pytest.mark.parametrize("n", [0, 1, 2, 4, 6])
def test_trimmed_reflection_family(n):
    assert_isomorphism(*instance("trimmed-reflection", n))


@pytest.mark.parametrize("n,i", [(6, 3), (5, 2), (4, 4), (6, 6), (5, 1)])
def test_above_prefix_family(n, i):
    assert_isomorphism(*instance("above-prefix", n, i))


@pytest.mark.parametrize("n,i", [(6, 3), (5, 2), (7, 3), (4, 3)])
def test_detached_family(n, i):
    assert_isomorphism(*instance("detached", n, i))


@pytest.mark.parametrize("n,i", [(5, 4), (4, 3), (6, 2), (3, 4)])
def test_trimmed_above_prefix_family(n, i):
    assert_isomorphism(*instance("trimmed-above-prefix", n, i))


@pytest.mark.parametrize("n,i", [(5, 4), (4, 2), (6, 3), (5, 5)])
def test_trimmed_detached_family(n, i):
    assert_isomorphism(*instance("trimmed-detached", n, i))


def test_check_isomorphism_identity():
    poset = gap_poset(3, 7)
    assert_isomorphism(poset, poset, {e: e for e in poset.elements})


def test_check_isomorphism_witnesses():
    poset = gap_poset(3, 7)
    small = gap_poset(2, 5)
    partial = {e: e for e in poset.elements[:-1]}
    collapsed = dict.fromkeys(poset.elements, 1)
    for source, mapping in ((poset, partial), (poset, collapsed),
                            (small, {1: 1, 3: 2})):
        with pytest.raises(AssertionError, match="not a bijection"):
            assert_isomorphism(source, poset, mapping)
    # right element set, scrambled order
    swap = {1: 2, 2: 1, 4: 4, 5: 5, 8: 8, 11: 11}
    with pytest.raises(AssertionError, match="covers not carried"):
        assert_isomorphism(poset, poset, swap)


def test_to_dot():
    text = to_dot(gap_poset(2, 5))
    assert text.splitlines() == ['digraph hasse {', '  "1";', '  "3";',
                                 '  "3" -> "1";', '}']


def test_induced_subposet_keeps_labels():
    poset = gap_poset(6, 13)
    part = above_prefix_part(poset, 3)
    assert isinstance(part, GapPoset)
    assert part.a == 6 and part.b == 13
    assert set(part.covers) == {(14, 8), (20, 14), (20, 7)}


def _assert_order_matches_oracle(poset):
    a, b = poset.a, poset.b
    assert poset.covers == reduced_covers(poset), (a, b, poset.elements)
    pairs = 0
    for q in poset.elements:
        above = _closure(poset, (q,), 1)   # the up-set of q
        for p in poset.elements:
            assert (p in above) == _representable(p - q, a, b), (a, b, q, p)
            pairs += 1
    return pairs


def test_order_matches_transitive_reduction_oracle():
    posets = [gap_poset(a, b) for a in range(1, 12) for b in range(1, 12)
              if gcd(a, b) == 1]
    for m in range(1, 7):
        for j in range(m):
            n = 0
            while len(family_poset(FamilyId(m, j, n)).elements) <= 60:
                posets.append(family_poset(FamilyId(m, j, n)))
                n += 1
    assert len(posets) == 83 + 134
    for n in range(8):
        for whole in (family_poset(FamilyId(2, 0, n)),
                      family_poset(FamilyId(2, 1, n))):
            a, b = whole.a, whole.b
            mins = minimal_elements(whole)
            for i in range(1, len(mins) + 2):
                part = above_prefix_part(whole, i)
                # the old pairwise definition, over the oracle's order
                assert part.elements == tuple(
                    p for p in whole.elements
                    if any(p != q and _representable(p - q, a, b)
                           for q in mins[:i - 1])
                    and not any(_representable(p - q, a, b)
                                or _representable(q - p, a, b)
                                for q in mins[i - 1:]))
                posets.append(part)
            for i in range(1, len(mins) + 1):
                part = detached_part(whole, i)
                assert part.elements == tuple(
                    p for p in whole.elements
                    if not any(_representable(p - q, a, b)
                               or _representable(q - p, a, b)
                               for q in mins[:i]))
                posets.append(part)
    assert len(posets) == 331
    assert sum(_assert_order_matches_oracle(p) for p in posets) == 132_995


def test_induced_subposet_rejects_non_convex_sets():
    poset = gap_poset(3, 7)
    # 4 and 8 lie between 1 and 11
    with pytest.raises(ValueError, match="not convex"):
        induced_subposet(poset, {1, 11})
    with pytest.raises(ElementNotInPosetError):
        induced_subposet(poset, {1, 3})
    assert induced_subposet(poset, {1, 4, 8, 11}).covers == (
        (4, 1), (8, 1), (11, 4), (11, 8))
