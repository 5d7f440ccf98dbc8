"""The beta-set encoding of partitions by finite sets of distinct integers.

A partition with r parts corresponds to the set of its first-column hook
lengths {parts[i] + r - 1 - i}.  Down in the gap poset world these sets are
exactly the order ideals, and the partition size can be read off a set
without decoding it.
"""

from collections import defaultdict
from collections.abc import Iterable

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


def ideal_to_partition(members: Iterable[int]) -> tuple[int, ...]:
    """The partition whose first-column hooks are exactly `members`."""
    hooks = _validated_descending(members)
    # r hooks give parts[i] = hooks[i] - (r - 1 - i), weakly down to hooks[-1] >= 1
    r = len(hooks)
    return tuple(h - (r - 1 - i) for i, h in enumerate(hooks))


def cores_by_size(a: int, b: int) -> dict[int, list[tuple[int, ...]]]:
    """Every simultaneous (a, b)-core, filed under its size, each class in
    no particular order.

    A core's hook set is an order ideal of the gaps, and ascending order is
    a linear extension of the gap poset.  So the walk meets the gaps in
    ascending order, and at each gap of a runner of `abacus_runners` that is
    still open it either closes the runner (that gap and every gap above it
    are not members) or keeps the gap.  Closing is always allowed.  Closing
    the gap g refuses g + b, the one gap of the next runner that the height
    rule then forbids; it lies ahead, so every path ends in a core.

    Members arrive in ascending order, so a kept gap's part is the gap less
    the members before it, fixed when the gap is kept and prepended to the
    parts so far: each core comes out decoded and in descending order, with
    no sort, and each part's int is shared by every core built on it.  A
    core is filed under the sum of its kept gaps less C(count, 2), as in
    `size_via_ideal`, never under the sum of its parts, so the parts stay an
    independent check of that size.  The walk keeps its own stack, so no
    depth can exhaust the recursion limit.  The cores of (a, b) are those of
    (b, a), so it runs on the abacus of the smaller generator, which has
    fewer runners to track.
    """
    gap_count(a, b)   # raises on a non-positive or non-coprime pair
    a, b = min(a, b), max(a, b)
    runner = {}   # each gap's runner, as one bit of a closed-runner mask
    for k, (t, r) in enumerate(abacus_runners(a, b)):
        for gap in range(r, r + a * t, a):
            runner[gap] = 1 << k
    gaps = sorted(runner)
    n = len(gaps)
    bits = [runner[gap] for gap in gaps]
    position = {gap: p for p, gap in enumerate(gaps)}
    # closing the gap at p refuses the gap b above it, as a bit of a mask
    # over positions, when that is a gap
    refuses = [1 << position[gap + b] if gap + b in position else 0 for gap in gaps]
    following = {}   # (position, closed runners) -> the next gap of an open runner
    classes = defaultdict(list)
    stack = [(0, 0, 0, 0, 0, ())]   # (position, closed, refused, count, member sum, parts)
    while stack:
        pos, closed, refused, count, total, parts = stack.pop()
        while True:
            key = pos, closed
            pos = following.get(key)
            if pos is None:
                pos = key[0]
                while pos < n and closed & bits[pos]:
                    pos += 1
                following[key] = pos
            if pos == n:
                classes[total - count * (count - 1) // 2].append(parts)
                break
            if refused >> pos & 1:
                closed |= bits[pos]
                refused |= refuses[pos]
            else:
                stack.append((pos + 1, closed | bits[pos], refused | refuses[pos],
                              count, total, parts))
                gap = gaps[pos]
                parts = (gap - count,) + parts
                count += 1
                total += gap
            pos += 1
    return dict(classes)


def size_via_ideal(members: Iterable[int]) -> int:
    """Partition size recovered directly from a hook set.

    Equals sum(members) - C(r, 2); computed without building the partition,
    so it is an independent route to size(ideal_to_partition(members)).
    """
    hooks = _validated_descending(members)
    r = len(hooks)
    return sum(hooks) - r * (r - 1) // 2
