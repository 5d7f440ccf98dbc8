"""The beta-set encoding of partitions by finite sets of distinct integers.

A partition with r parts corresponds to the set of its first-column hook
lengths {parts[i] + r - 1 - i}.  Down in the gap poset world these sets are
exactly the order ideals, and the partition size can be read off a set
without decoding it.
"""

from collections import defaultdict
from collections.abc import Iterable

from .posets import gap_poset


class NotBetaSetError(ValueError):
    """Raised when a hook set's members are not distinct positive integers."""


def partition_to_ideal(parts: Iterable[int]) -> frozenset[int]:
    """First-column hook lengths of a partition, as a set."""
    from .partitions import check_partition   # here: `cores` needs no partitions
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


def cores_by_size(a: int, b: int) -> dict[int, list[list[str]]]:
    """Every simultaneous (a, b)-core, filed under its size as a pair of
    parallel lists [keys, texts], each class in no particular order.

    A core's hook set is an order ideal of the gaps, and ascending order is
    a linear extension of the gap poset.  Each gap g has one mask `shut[g]`
    of its principal filter, g and every gap above it, built downward from
    those of g + a and g + b.  The walk holds one mask of the gaps still
    open and takes the lowest: it either keeps it or drops it and shuts its
    filter.  Every gap below an open gap has been kept, so each open gap is
    a real choice, every path ends in a core, and the walk takes
    core_count - 1 keep steps.

    Members arrive in ascending order, so a kept gap's part is the gap less
    the members before it, fixed when the gap is kept and prepended to the
    core's two strings: its key, one code point per part, and its text, the
    parts in decimal separated by spaces.  Both come out in descending
    order, and no part is formatted after the walk.  Every part is at most
    the gap count: the core of every gap has that largest part and contains
    every other core (Vandehey).  Within a class no key is a proper prefix
    of another, so a reverse sort of the keys is descending order on parts.
    A core is filed under its kept-gap sum less C(count, 2), which the
    tests check by the oracle `size_via_ideal`, never under the sum of its
    parts, so the key stays an independent check of that size.  The walk
    keeps its own stack, so no depth can exhaust the recursion limit.
    """
    gaps = gap_poset(a, b).elements
    n = len(gaps)
    shut = {}   # each gap's principal filter, as a mask over positions
    for p in range(n - 1, -1, -1):
        gap = gaps[p]
        shut[gap] = 1 << p | shut.get(gap + a, 0) | shut.get(gap + b, 0)
    chars = list(map(chr, range(n + 1)))
    digits = list(map(str, range(n + 1)))
    words = [f"{part} " for part in digits]
    keys, texts = defaultdict(list), defaultdict(list)
    stack = [((1 << n) - 1, 0, 0, "", "")]   # (open, count, member sum, key, text)
    while stack:
        open_, count, total, key, text = stack.pop()
        while open_:
            low = open_ & -open_
            gap = gaps[low.bit_length() - 1]
            stack.append((open_ & ~shut[gap], count, total, key, text))
            part = gap - count
            key = chars[part] + key
            text = words[part] + text if count else digits[part]
            count += 1
            total += gap
            open_ ^= low
        size = total - count * (count - 1) // 2
        keys[size].append(key)
        texts[size].append(text)
    return {size: [cls, texts[size]] for size, cls in keys.items()}
