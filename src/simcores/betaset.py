"""The beta-set encoding of partitions by finite sets of distinct integers.

A partition with r parts corresponds to the set of its first-column hook
lengths {parts[i] + r - 1 - i}.  Down in the gap poset world these sets are
exactly the order ideals, and the partition size can be read off a set
without decoding it.
"""

from collections.abc import Iterable, Iterator
from heapq import heappop, heappush

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


def cores_by_size(a: int, b: int,
                  sep: str = " ") -> Iterator[tuple[int, list[str]]]:
    """Every simultaneous (a, b)-core, as an iterator of size classes
    (size, texts) in ascending size, each class in canonical order
    (descending parts).  A text is a core's parts in decimal joined by
    `sep`, so a writer can have each core filed in its own format.  The
    pair is checked and its gap poset built at the call; the walk runs as
    the classes are taken.  Each core is filed under the sum of its parts
    and checked, as its class is taken and before the class is yielded,
    against its size read off its hook set, its kept-gap sum less
    C(count, 2): the two routes must agree, or ArithmeticError.

    Removing the largest part of a core leaves a core, its parent, whose
    hook set lacks the largest member.  So every nonempty core is its
    parent with one part p = g - count prepended, for a gap g above the
    parent's largest member whose lower covers g - a and g - b are in the
    parent's ideal or are no gaps.  Each core carries the mask of those
    gaps: its child by g keeps the bits above g and adds the up-covers of g
    whose other lower cover is in the ideal or is no gap.

    Sizes are taken in ascending order from a heap; every parent is smaller
    than its child, so a class is complete when it is taken.  A child is
    appended to its class as it is made, so class S gets the children of
    class S - p for p descending, each in that class's order, and a parent
    has at most one child per part, its gaps being distinct: every class
    is canonical as built.  Each child costs one string concatenation and
    a few bit operations, and the loop keeps no stack, so no depth can
    exhaust the recursion limit.
    """
    gaps = gap_poset(a, b).elements
    bit = {gap: 1 << i for i, gap in enumerate(gaps)}
    # per gap position: each up-cover's bit, with the bit of its other lower
    # cover, 0 when that is no gap
    covers = [(bit.get(gap + a, 0), bit.get(gap + a - b, 0),
               bit.get(gap + b, 0), bit.get(gap + b - a, 0)) for gap in gaps]
    minimal = sum(bit[gap] for gap in gaps
                  if gap - a not in bit and gap - b not in bit)
    # every part is at most the gap count: the core of every gap has that
    # largest part and contains every other core (Vandehey)
    digits = list(map(str, range(len(gaps) + 1)))
    words = [f"{part}{sep}" for part in digits]

    def walk():
        # size -> the cores of that size, each a tuple
        # (text, ideal, extension mask, count, kept-gap sum)
        pending = {0: [("", 0, minimal, 0, 0)]}
        sizes = [0]
        while sizes:
            size = heappop(sizes)
            cls = pending.pop(size)
            for text, ideal, ext, count, total in cls:
                hooks = total - count * (count - 1) // 2
                if hooks != size:
                    raise ArithmeticError(f"a core listed under size {size} "
                                          f"has a hook set of size {hooks}")
                while ext:   # lowest gap first, so ext keeps only gaps above it
                    low = ext & -ext
                    ext ^= low
                    i = low.bit_length() - 1
                    gap = gaps[i]
                    part = gap - count
                    child = ideal | low
                    up_a, other_a, up_b, other_b = covers[i]
                    grown = ext
                    if child & other_a == other_a:
                        grown |= up_a
                    if child & other_b == other_b:
                        grown |= up_b
                    if size + part not in pending:
                        pending[size + part] = []
                        heappush(sizes, size + part)
                    pending[size + part].append(
                        (words[part] + text if count else digits[part],
                         child, grown, count + 1, total + gap))
            yield size, [core[0] for core in cls]

    return walk()
