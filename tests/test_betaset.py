from itertools import takewhile
from math import gcd

import pytest
from hypothesis import given, strategies as st

from oracles import (canonical_order, enumerate_cores_bounded, hook_lengths,
                     is_core, size_via_ideal, walk_with_hook_fault)
from simcores.betaset import (NotBetaSetError, cores_by_size,
                              ideal_to_partition, partition_to_ideal)
from simcores.posets import NonCoprimeError, gap_poset, order_ideals
from simcores.stats import average_size_check, core_count


def test_partition_to_ideal_worked_example():
    assert partition_to_ideal((5, 3, 1, 1)) == frozenset({8, 5, 2, 1})
    assert partition_to_ideal(()) == frozenset()
    # cross-check against the first column of the hook matrix
    first_column = {row[0] for row in hook_lengths((2, 1))}
    assert partition_to_ideal((2, 1)) == frozenset({3, 1}) == first_column


@pytest.mark.parametrize("parts", [(1, 2), (2, 0), (2, -1)])
def test_partition_to_ideal_rejects_bad_partitions(parts):
    with pytest.raises(ValueError, match="parts must be"):
        partition_to_ideal(parts)


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


def decoded(classes):
    """`cores_by_size`'s classes as (size, parts tuples) pairs, each text read
    back into its parts and written again the same.  Sizes must ascend, no
    class may be empty, and each core's parts must give its class size."""
    classes = list(classes)
    sizes = [size for size, _ in classes]
    assert sizes == sorted(set(sizes))
    out = []
    for size, texts in classes:
        cls = [tuple(map(int, text.split())) for text in texts]
        assert texts == [" ".join(map(str, p)) for p in cls], size
        assert cls and all(sum(p) == size for p in cls), size
        out.append((size, cls))
    return out


def listing(classes):
    """The cores of `decoded(classes)` in one list, in the order they come."""
    return [p for _, cls in decoded(classes) for p in cls]


def test_cores_by_size_match_ideal_enumeration():
    # every coprime pair with at most 40 gaps, in both orders, 1 included
    pairs = [(a, b) for a in range(1, 82) for b in range(1, 82)
             if gcd(a, b) == 1 and (a - 1) * (b - 1) <= 80]
    assert len(pairs) == 371 and (2, 81) in pairs and (81, 1) in pairs
    for a, b in pairs:
        cores = listing(cores_by_size(a, b))
        enumerated = canonical_order([ideal_to_partition(m)
                                      for m in order_ideals(gap_poset(a, b))])
        # each class comes out in canonical order, with no sort after
        assert cores == enumerated, (a, b)
        assert len(cores) == core_count(a, b), (a, b)
        assert listing(cores_by_size(b, a)) == cores, (a, b)


def test_cores_by_size_deep_single_runner():
    # the gap poset of (2, 4999) is one chain of 2,499 gaps; its cores are
    # the staircases k, k - 1, ..., 1, one to a size
    staircases = [tuple(range(k, 0, -1)) for k in range(2500)]
    assert listing(cores_by_size(2, 4999)) == staircases
    assert listing(cores_by_size(4999, 2)) == staircases


# past the enumeration oracle: every coprime pair with 41-60 gaps and at most
# 15,000 cores
BEYOND_ENUMERATION = [(a, b) for a in range(2, 122) for b in range(a + 1, 122)
                      if gcd(a, b) == 1 and 41 <= (a - 1) * (b - 1) // 2 <= 60
                      and core_count(a, b) <= 15_000]


def test_cores_by_size_agree_with_transfer_beyond_enumeration():
    pairs = BEYOND_ENUMERATION
    assert len(pairs) == 53 and (2, 121) in pairs and (8, 13) in pairs
    for a, b in pairs:
        classes = decoded(cores_by_size(a, b))
        check = average_size_check(a, b)
        assert sum(len(cls) for _, cls in classes) == check.count, (a, b)
        assert sum(size * len(cls) for size, cls in classes) == check.total, (a, b)


def test_cores_by_size_classes_descend_beyond_enumeration():
    # canonical order within a class is descending order on parts
    for a, b in BEYOND_ENUMERATION:
        for size, cls in decoded(cores_by_size(a, b)):
            assert cls == sorted(cls, reverse=True), (a, b, size)


def test_cores_by_size_checks_each_core_against_its_hook_set():
    # a kept-gap sum 1 too large from the second part on leaves every text
    # right, and the walk refuses the first core it makes wrong, (1, 1)
    for a, b in [(3, 7), (3, 301)]:
        with pytest.raises(ArithmeticError) as caught:
            list(walk_with_hook_fault("count > 0")(a, b))
        assert str(caught.value) == ("a core listed under size 2 has a hook "
                                     "set of size 3"), (a, b)
    # the recompiled walk unfaulted is the walk
    assert list(walk_with_hook_fault("0")(3, 301)) == list(cores_by_size(3, 301))


def test_cores_by_size_yields_each_class_before_a_later_fault():
    # the walk runs as its classes are taken: with the kept-gap sum 1 too
    # large for each core made with a part above 255, every class below the
    # first such core's size comes out as the unfaulted walk gives it, and
    # only then is that core refused
    taken = []
    with pytest.raises(ArithmeticError) as caught:
        for cls in walk_with_hook_fault("gap - count > 255")(3, 301):
            taken.append(cls)
    assert str(caught.value) == ("a core listed under size 18892 has a hook "
                                 "set of size 18893")
    assert taken == list(takewhile(lambda cls: cls[0] < 18_892,
                                   cores_by_size(3, 301)))
    assert len(taken) == 5_371 and taken[-1][0] == 18_890


def test_cores_by_size_reject_bad_pairs():
    with pytest.raises(NonCoprimeError):
        cores_by_size(4, 6)
    with pytest.raises(ValueError, match="positive"):
        cores_by_size(0, 5)
