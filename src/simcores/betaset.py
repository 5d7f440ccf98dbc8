"""The beta-set encoding of partitions by finite sets of distinct integers.

A partition with r parts corresponds to the set of its first-column hook
lengths {parts[i] + r - 1 - i}.  Down in the gap poset world these sets are
exactly the order ideals, and the partition size can be read off a set
without decoding it.
"""

from collections.abc import Iterable
from operator import sub

from .partitions import check_partition
from .posets import abacus_runners, gap_count


class NotBetaSetError(ValueError):
    """Raised when a hook set's members are not distinct positive integers."""


def partition_to_ideal(parts: Iterable[int]) -> frozenset[int]:
    """First-column hook lengths of a partition, as a set."""
    parts = check_partition(parts)
    r = len(parts)
    return frozenset(p + r - 1 - i for i, p in enumerate(parts))


def _validated_descending(members: Iterable[int]) -> list[int]:
    hooks = sorted(members, reverse=True)
    for i, h in enumerate(hooks):
        if not isinstance(h, int) or h < 1:
            raise NotBetaSetError(f"members must be distinct positive integers, got {h!r}")
        if i and hooks[i - 1] == h:
            raise NotBetaSetError(f"members must be distinct, {h} repeats")
    return hooks


def _from_descending(hooks: list[int]) -> tuple[int, ...]:
    # r hooks give parts[i] = hooks[i] - (r - 1 - i), weakly down to hooks[-1] >= 1
    return tuple(map(sub, hooks, range(len(hooks) - 1, -1, -1)))


def ideal_to_partition(members: Iterable[int]) -> tuple[int, ...]:
    """The partition whose first-column hooks are exactly `members`."""
    return _from_descending(_validated_descending(members))


def core_partitions(a: int, b: int) -> list[tuple[int, ...]]:
    """Every simultaneous (a, b)-core, in no particular order.

    Walks the height sequences of `abacus_runners` with its own stack, so
    no number of runners can exhaust the recursion limit, and turns each
    ideal's members into a partition.  The cores of (a, b) are those of
    (b, a), so the walk runs on the abacus of the smaller generator, which
    has fewer runners to copy member tuples across.
    """
    gap_count(a, b)   # raises on a non-positive or non-coprime pair
    a, b = min(a, b), max(a, b)
    steps = []   # per runner: (t_k, t_k - t_{k-1}, its bottom gaps)
    prev = 0
    for t, r in abacus_runners(a, b):
        steps.append((t, t - prev, tuple(range(r, r + a * t, a))))
        prev = t
    out = []
    stack = [(0, 0, ())]   # (runner index, previous height, members so far)
    while stack:
        k, h, members = stack.pop()
        if k == len(steps):
            out.append(_from_descending(sorted(members, reverse=True)))
            continue
        t, d, gaps = steps[k]
        for top in range(min(t, h + d) + 1):
            stack.append((k + 1, top, members + gaps[:top]))
    return out


def size_via_ideal(members: Iterable[int]) -> int:
    """Partition size recovered directly from a hook set.

    Equals sum(members) - C(r, 2); computed without building the partition,
    so it is an independent route to size(ideal_to_partition(members)).
    """
    hooks = _validated_descending(members)
    r = len(hooks)
    return sum(hooks) - r * (r - 1) // 2
