from math import gcd

import pytest
from hypothesis import given, strategies as st

from simcores.betaset import (NotBetaSetError, core_partitions,
                              ideal_to_partition, partition_to_ideal,
                              size_via_ideal)
from simcores.partitions import (canonical_order, enumerate_cores_bounded,
                                 hook_lengths, is_core)
from simcores.posets import NonCoprimeError, gap_poset, order_ideals
from simcores.stats import core_count


def test_partition_to_ideal_worked_example():
    assert partition_to_ideal((5, 3, 1, 1)) == frozenset({8, 5, 2, 1})
    assert partition_to_ideal(()) == frozenset()
    # cross-check against the first column of the hook matrix
    first_column = {row[0] for row in hook_lengths((2, 1))}
    assert partition_to_ideal((2, 1)) == frozenset({3, 1}) == first_column


def test_ideal_to_partition_examples():
    assert ideal_to_partition({8, 5, 2, 1}) == (5, 3, 1, 1)
    assert ideal_to_partition(set()) == ()
    assert ideal_to_partition({5, 3, 1}) == (3, 2, 1)


def test_ideal_to_partition_rejects_bad_sets():
    with pytest.raises(NotBetaSetError):
        ideal_to_partition({3, 1, 0})
    with pytest.raises(NotBetaSetError):
        ideal_to_partition({-1, 2})
    with pytest.raises(NotBetaSetError):
        ideal_to_partition([2, 2, 1])


def test_size_via_ideal_examples():
    assert size_via_ideal({8, 5, 2, 1}) == 16 - 6 == 10
    assert size_via_ideal(set()) == 0
    assert size_via_ideal({5, 3, 1}) == 9 - 3 == 6 == sum(ideal_to_partition({5, 3, 1}))


def test_largest_two_seven_core():
    # {5, 3, 1} is the full gap set of (2, 7), so it decodes to the largest core
    assert set(gap_poset(2, 7).elements) == {1, 3, 5}
    assert is_core(ideal_to_partition({5, 3, 1}), {2, 7})


@given(st.frozensets(st.integers(1, 300), max_size=30))
def test_roundtrip_from_sets(members):
    parts = ideal_to_partition(members)
    assert partition_to_ideal(parts) == frozenset(members)
    assert size_via_ideal(members) == sum(parts)


@given(st.lists(st.integers(1, 40), max_size=12))
def test_roundtrip_from_partitions(raw):
    parts = tuple(sorted(raw, reverse=True))
    assert ideal_to_partition(partition_to_ideal(parts)) == parts


def test_roundtrip_over_all_small_poset_ideals():
    pairs = [(a, b) for a in range(1, 14) for b in range(a + 1, 14)
             if a + b <= 14 and gcd(a, b) == 1]
    for a, b in pairs:
        for members in order_ideals(gap_poset(a, b)):
            parts = ideal_to_partition(members)
            assert partition_to_ideal(parts) == frozenset(members)
            assert is_core(parts, {a, b})
            assert size_via_ideal(members) == sum(parts)


def test_bijection_image_is_every_core():
    # Exhaustive surjectivity: decode every ideal, find the largest size the
    # image reaches, then sweep all partitions up to that size and demand the
    # two enumerations agree exactly.
    pairs = [(a, b) for a in range(1, 12) for b in range(a + 1, 12)
             if a + b <= 12 and gcd(a, b) == 1]
    for a, b in pairs:
        image = sorted(
            (ideal_to_partition(members) for members in order_ideals(gap_poset(a, b))),
            key=lambda p: (sum(p), tuple(-q for q in p)))
        bound = max(sum(p) for p in image)
        assert image == enumerate_cores_bounded({a, b}, bound), (a, b)


def test_core_partitions_match_ideal_enumeration():
    # every coprime pair with at most 40 gaps, in both orders, 1 included
    pairs = [(a, b) for a in range(1, 82) for b in range(1, 82)
             if gcd(a, b) == 1 and (a - 1) * (b - 1) <= 80]
    assert len(pairs) == 371 and (2, 81) in pairs and (81, 1) in pairs
    for a, b in pairs:
        walked = canonical_order(core_partitions(a, b))
        enumerated = canonical_order([ideal_to_partition(m)
                                      for m in order_ideals(gap_poset(a, b))])
        assert walked == enumerated, (a, b)
        assert len(walked) == core_count(a, b), (a, b)
        assert walked == canonical_order(core_partitions(b, a)), (a, b)


def test_core_partitions_reject_bad_pairs():
    with pytest.raises(NonCoprimeError):
        core_partitions(4, 6)
    with pytest.raises(ValueError, match="positive"):
        core_partitions(0, 5)
