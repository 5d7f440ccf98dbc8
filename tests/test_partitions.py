import pytest
from hypothesis import given, strategies as st

from simcores import partitions
from simcores.partitions import (canonical_order, check_partition, conjugate,
                                 enumerate_cores_bounded, hook_lengths,
                                 is_core, partitions_of)

# Frozen classic partition counts p(0)..p(10).
PARTITION_COUNTS = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]


def brute_hooks(parts):
    """Hook lengths by direct cell counting, independent of the conjugate."""
    out = []
    for i, p in enumerate(parts):
        row = []
        for j in range(p):
            right = p - j - 1
            below = sum(1 for q in parts[i + 1:] if q > j)
            row.append(right + below + 1)
        out.append(row)
    return out


def test_hook_lengths_worked_example():
    assert hook_lengths((5, 3, 1, 1)) == [[8, 5, 4, 2, 1], [5, 2, 1], [2], [1]]


def test_hook_lengths_trivial():
    assert hook_lengths(()) == []
    assert hook_lengths((1,)) == [[1]]


def test_hook_lengths_against_cell_counting_oracle():
    for n in range(31):
        for parts in partitions_of(n):
            assert hook_lengths(parts) == brute_hooks(parts)


def test_hook_multiset_conjugation_symmetric():
    for n in range(21):
        for parts in partitions_of(n):
            own = sorted(h for row in hook_lengths(parts) for h in row)
            conj = sorted(h for row in hook_lengths(conjugate(parts)) for h in row)
            assert own == conj


def test_check_partition_rejects_bad_input():
    with pytest.raises(ValueError):
        check_partition((1, 2))
    with pytest.raises(ValueError):
        check_partition((2, 0))
    with pytest.raises(ValueError):
        check_partition((2, -1))


def test_is_core_worked_example():
    assert is_core((5, 3, 1, 1), {3, 7})
    assert is_core((), {3, 7})


def test_is_core_computed_instance():
    # Freeze the expected value from the hook oracle itself.
    hooks = {h for row in hook_lengths((3, 1)) for h in row}
    expected = not (hooks & {2, 5})
    assert expected is False
    assert is_core((3, 1), {2, 5}) is expected


def test_is_core_requires_nonempty_forbidden():
    with pytest.raises(ValueError):
        is_core((2, 1), set())


def test_partitions_of_counts():
    for n, expected in enumerate(PARTITION_COUNTS):
        assert sum(1 for _ in partitions_of(n)) == expected


def test_partitions_of_descending_lex():
    got = list(partitions_of(4))
    assert got == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]


def test_enumerate_cores_bounded_small():
    assert enumerate_cores_bounded({2, 5}, 10) == [(), (1,), (2, 1)]
    assert enumerate_cores_bounded({3, 7}, 0) == [()]
    assert len(enumerate_cores_bounded({3, 7}, 20)) == 12


def test_enumerate_cores_bounded_checks_forbidden_before_searching(monkeypatch):
    def searched(cores):
        raise AssertionError("searched before checking the forbidden set")
    monkeypatch.setattr(partitions, "canonical_order", searched)
    with pytest.raises(ValueError, match="forbidden hook set must be nonempty"):
        enumerate_cores_bounded([], 5)


def test_enumerate_cores_bounded_canonical_order():
    cores = enumerate_cores_bounded({3, 7}, 20)
    keys = [(sum(p), tuple(-q for q in p)) for p in cores]
    assert keys == sorted(keys)


@given(st.lists(st.sampled_from([p for n in range(13) for p in partitions_of(n)]),
                max_size=60))
def test_canonical_order_matches_key_sort(ps):
    # the negated-parts key is the order's definition; the two stable sorts
    # must reproduce it on any multiset of partitions, repeats included
    expected = sorted(ps, key=lambda p: (sum(p), tuple(-q for q in p)))
    assert canonical_order(ps) is ps
    assert ps == expected


@pytest.mark.parametrize("forbidden", [{1}, {2}, {3}, {2, 3}, {2, 5}, {3, 7},
                                       {4, 6}, {5, 7, 9}, {6, 7}, {11}])
def test_enumerate_cores_bounded_against_partition_filter(forbidden):
    # the hook-pruned search against the exhaustive filter of every partition
    for max_size in (0, 5, 14):
        assert enumerate_cores_bounded(forbidden, max_size) == [
            parts for n in range(max_size + 1) for parts in partitions_of(n)
            if is_core(parts, forbidden)]


@given(st.lists(st.integers(1, 20), max_size=10))
def test_conjugate_involution(parts):
    parts = tuple(sorted(parts, reverse=True))
    assert conjugate(conjugate(parts)) == parts
