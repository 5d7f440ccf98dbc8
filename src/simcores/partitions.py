"""Integer partitions, hook lengths, and exhaustive searches for cores.

Partitions are plain tuples of weakly decreasing positive parts; the empty
tuple is the empty partition.
"""

from collections.abc import Iterable, Iterator
from itertools import chain


def check_partition(parts: Iterable[int]) -> tuple[int, ...]:
    """Coerce to a tuple and validate positivity and weak decrease."""
    out = tuple(parts)
    for i, p in enumerate(out):
        if not isinstance(p, int) or p < 1:
            raise ValueError(f"parts must be positive integers, got {p!r}")
        if i and out[i - 1] < p:
            raise ValueError(f"parts must be weakly decreasing, got {out}")
    return out


def conjugate(parts: Iterable[int]) -> tuple[int, ...]:
    """Column lengths of the Young diagram (the transposed partition)."""
    parts = check_partition(parts)
    if not parts:
        return ()
    cols = [0] * parts[0]
    for p in parts:
        for j in range(p):
            cols[j] += 1
    return tuple(cols)


def hook_lengths(parts: Iterable[int]) -> list[list[int]]:
    """Ragged hook-length matrix, one row per part.

    The hook of cell (i, j) counts the cell itself, the cells to its right
    in row i, and the cells below it in column j (rows and columns are
    0-indexed; row i has parts[i] entries).
    """
    parts = check_partition(parts)
    cols = conjugate(parts)
    return [[(p - j) + (cols[j] - i) - 1 for j in range(p)]
            for i, p in enumerate(parts)]


def _hook_set(forbidden: Iterable[int]) -> frozenset[int]:
    banned = frozenset(forbidden)
    if not banned:
        raise ValueError("forbidden hook set must be nonempty")
    return banned


def is_core(parts: Iterable[int], forbidden: Iterable[int]) -> bool:
    """True when no hook length of the partition lies in `forbidden`."""
    return _hook_set(forbidden).isdisjoint(chain.from_iterable(hook_lengths(parts)))


def partitions_of(n: int, max_part: int | None = None) -> Iterator[tuple[int, ...]]:
    """Yield all partitions of n in descending lexicographic order."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if max_part is None or max_part > n:
        max_part = n
    if n == 0:
        yield ()
        return
    for first in range(max_part, 0, -1):
        for rest in partitions_of(n - first, first):
            yield (first,) + rest


def canonical_order(cores: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Sort in place by size, then by descending parts, and return `cores`.
    Of two partitions of one size neither is a proper prefix of the other."""
    cores.sort(reverse=True)
    cores.sort(key=sum)
    return cores


def enumerate_cores_bounded(forbidden: Iterable[int], max_size: int) -> list[tuple[int, ...]]:
    """Every partition of size <= max_size whose hooks avoid `forbidden`.

    Partitions grow from the bottom row up.  A new top row of length p sits
    on rows whose column heights are `cols`, so its cell c has hook
    p - c + cols[c]; rows above it cannot change a hook already placed, so
    a row with a forbidden hook is never extended and the search stays
    exhaustive.  Output is canonically ordered: ascending size, then
    descending lexicographic parts.
    """
    if max_size < 0:
        raise ValueError("max_size must be >= 0")
    banned = _hook_set(forbidden)
    found = []
    stack = [((), (), 0)]   # (parts top row first, column heights, size)
    while stack:
        parts, cols, size = stack.pop()
        found.append(parts)
        for p in range(parts[0] if parts else 1, max_size - size + 1):
            heights = cols + (0,) * (p - len(cols))
            if any(p - c + h in banned for c, h in enumerate(heights)):
                continue
            stack.append(((p,) + parts, tuple(h + 1 for h in heights), size + p))
    return [parts for parts in canonical_order(found) if is_core(parts, banned)]
