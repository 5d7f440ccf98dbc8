"""Independent oracles that the tests check the library against: the
hook-length side of the core/ideal bijection, and the slope-two catalog.

The paper proves Armstrong's average for a | b - 1 by cutting each gap
poset into smaller copies of itself, as Stanley and Zanello did for
a = b - 1.  At slope two the plain poset of index n is the gap poset of
(n, 2n + 1), and the trimmed poset of index n drops the bottom layer of
the gap poset of (n + 1, 2n + 3).  Every part keeps its labels from the
whole poset, so each copy is given by an explicit element map.

Then the series kernel's slow side: the schoolbook product and the long
division by a unit, as nested loops over coefficient tuples; and the
lattice-path transfer's, which carries five moments of each completion
(count, sum s, sum s^2, sum of labels, sum of layers) and converts them to
the four reported totals at the end.

Last, the listing walk recompiled with a planted fault, for the tests of
the check that must catch it.
"""

import inspect
from collections import defaultdict
from collections.abc import Iterable, Iterator
from itertools import chain

from simcores import betaset
from simcores.betaset import _validated_descending
from simcores.partitions import check_partition
from simcores.posets import (FamilyId, _closure, abacus_runners,
                             family_poset, gap_poset, induced_subposet)


def conjugate(parts: Iterable[int]) -> tuple[int, ...]:
    """Column lengths of the Young diagram (the transposed partition)."""
    parts = check_partition(parts)
    cols = [0] * max(parts, default=0)
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
    Of two partitions of one size neither is a proper prefix of the other,
    so a plain reverse sort of each size class is descending by parts."""
    classes = defaultdict(list)
    for p in cores:
        classes[sum(p)].append(p)
    for cls in classes.values():
        cls.sort(reverse=True)
    cores[:] = chain.from_iterable(classes[size] for size in sorted(classes))
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


def size_via_ideal(members: Iterable[int]) -> int:
    """sum(members) - C(len(members), 2): the size of
    ideal_to_partition(members), computed without building the partition."""
    hooks = _validated_descending(members)
    return sum(hooks) - len(hooks) * (len(hooks) - 1) // 2


def minimal_elements(poset):
    """Elements that cover nothing, in ascending order."""
    uppers = {hi for hi, _ in poset.covers}
    return tuple(e for e in poset.elements if e not in uppers)


def above_prefix_part(poset, i):
    """Elements above one of the first i - 1 minimal elements and
    incomparable to every later minimal element."""
    mins = minimal_elements(poset)
    if not 1 <= i <= len(mins) + 1:
        raise ValueError(f"i must be in [1, {len(mins) + 1}], got {i}")
    prefix, rest = mins[:i - 1], mins[i - 1:]
    # p is comparable to a minimal element q exactly when p >= q
    return induced_subposet(poset, _closure(poset, prefix, 1) - set(prefix)
                            - _closure(poset, rest, 1))


def detached_part(poset, i):
    """Elements incomparable to each of the first i minimal elements."""
    mins = minimal_elements(poset)
    if not 1 <= i <= len(mins):
        raise ValueError(f"i must be in [1, {len(mins)}], got {i}")
    return induced_subposet(poset, set(poset.elements)
                            - _closure(poset, mins[:i], 1))


def _plain(n):
    return family_poset(FamilyId(2, 0, n))


def _trimmed(n):
    return family_poset(FamilyId(2, 1, n))


# Each family of cuts, as a function of its indices, to (source, target,
# image of one source element).
CATALOG = {
    # trimmed of index n onto the gap poset of (n + 1, 2n + 1), reflecting
    # every element inside its layer
    "trimmed-reflection": lambda n: (
        _trimmed(n), gap_poset(n + 1, 2 * n + 1),
        lambda q: (2 * n + 2) * (q // (n + 1)) - q),
    # trimmed of index i - 1 onto a part of plain n, shifted by its layer
    "above-prefix": lambda n, i: (
        _trimmed(i - 1), above_prefix_part(_plain(n), i),
        lambda q: q + (n - i) * (q // i)),
    "detached": lambda n, i: (
        _plain(n - i), detached_part(_plain(n), i),
        lambda p: p + i + i * (p // (n - i))),
    "trimmed-above-prefix": lambda n, i: (
        _plain(i - 1), above_prefix_part(_trimmed(n), i),
        lambda p: p + 2 * n + 3 + (n + 2 - i) * (p // (i - 1))),
    "trimmed-detached": lambda n, i: (
        _plain(n - i + 1), detached_part(_trimmed(n), i),
        lambda p: p + n + 1 + i + i * (p // (n - i + 1))),
}


def instance(name, *indices):
    """(source, target, mapping) of one catalog entry, the map as a dict."""
    source, target, image = CATALOG[name](*indices)
    return source, target, {p: image(p) for p in source.elements}


def assert_isomorphism(source, target, mapping):
    """`mapping`, a dict, is an order isomorphism from source onto target."""
    images = [mapping.get(p) for p in source.elements]
    assert len(images) == len(target.elements) and set(images) == set(target.elements), \
        f"not a bijection onto {target}"
    assert {(mapping[hi], mapping[lo]) for hi, lo in source.covers} \
        == set(target.covers), f"covers not carried onto {target}"


def schoolbook_product(a, b):
    """The coefficients of a * b through the shorter order: each a[i] times
    each b[j] added into place i + j."""
    n = min(len(a), len(b))
    out = [0] * n
    for i in range(n):
        for j in range(n - i):
            out[i + j] += a[i] * b[j]
    return tuple(out)


def unit_quotient(a, b):
    """The coefficients of a / b through the shorter order, for b[0] = 1 or
    -1, which is its own inverse: solve a = out * b for out[k] in turn."""
    assert b[0] in (1, -1)
    out = []
    for k in range(min(len(a), len(b))):
        acc = a[k]
        for i in range(1, k + 1):
            acc -= b[i] * out[k - i]
        out.append(acc * b[0])
    return tuple(out)


def moment_path_totals(a: int, b: int) -> list[tuple[int, int, int, int]]:
    """Totals over the order ideals of the gap poset of (a, b), for each cap
    c = 0 .. t_k on the first nonempty runner k, in one pass along
    Anderson's lattice paths.

    An ideal is a height sequence on the runners of `abacus_runners(a, b)`,
    and the level i of a gap r_k + a*i is its layer p // a.  From the last
    runner down, for each height of the current runner the pass carries the
    moments (count, sum s, sum s^2, sum of labels, sum of layers) of the
    completions from it on, s being their number of members; prefix sums
    over the next runner's heights keep it linear in the number of gaps.
    Entry c is (ideal count, member sum, layer sum, size sum) over the
    ideals with h_k <= c, an ideal of s members having size
    sum(labels) - C(s, 2); the last entry is the whole poset.  With no gaps
    there are no runners: the one entry is the empty poset's one ideal.
    """
    runners = abacus_runners(a, b)
    t_next = runners[-1][0] if runners else 0
    # past the last runner, one empty completion follows every height
    prefix = [(1, 0, 0, 0, 0)] * (t_next + 1)
    for t, r in reversed(runners):
        offset = t_next - t   # height h is followed by heights <= h + offset
        nxt = []
        pc = p1 = p2 = pl = py = 0
        for h in range(t + 1):
            c, x1, x2, xl, xy = prefix[h + offset]
            y = h * (h - 1) // 2   # layer sum of the members 0 .. h - 1
            pc += c
            p1 += x1 + h * c
            p2 += x2 + (2 * x1 + h * c) * h
            pl += xl + (h * r + a * y) * c
            py += xy + y * c
            nxt.append((pc, p1, p2, pl, py))
        prefix, t_next = nxt, t
    return [(c, x1, xy, xl - (x2 - x1) // 2) for c, x1, x2, xl, xy in prefix]


def walk_with_hook_fault(condition):
    """`betaset.cores_by_size` recompiled with the kept-gap sum 1 too large
    for each child whose `condition`, an expression in `count` (the parent's
    part count) and `gap`, holds.  Every text is still right, and so are the
    count and total of the listing: only the walk's check of each core
    against its hook set can see the fault."""
    source = inspect.getsource(betaset.cores_by_size)
    assert source.count("total + gap") == 1
    namespace = dict(vars(betaset))
    exec(compile(source.replace("total + gap", f"total + gap + ({condition})"),
                 betaset.__file__, "exec"), namespace)
    return namespace["cores_by_size"]
