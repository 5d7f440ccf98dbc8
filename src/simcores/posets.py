"""Gap posets of two-generator numerical semigroups and their order ideals.

The poset on the gaps of the semigroup generated by coprime {a, b} has
q <= p exactly when p - q is a nonnegative combination of a and b, and
p covers q exactly when p - q is a or b.  A two-parameter family of
truncations of these posets (drop the bottom j layers, where the layer of
p is floor(p / (n + 1))) drives all the statistics in this package.
"""

from collections import namedtuple
from functools import lru_cache
from itertools import compress
from math import gcd


class NonCoprimeError(ValueError):
    """The generators share a factor, so the gap set would be infinite."""


class InvalidFamilyError(ValueError):
    """A family index (m, j, n) outside the allowed ranges."""


class ElementNotInPosetError(LookupError):
    """An element was addressed that the poset does not contain."""


class GapPoset(namedtuple("GapPoset", "a b elements")):
    """Finite poset of semigroup gaps, possibly restricted to a subset.

    Invariant: `elements` is a convex set of gaps of {a, b}, each under its
    label in the full gap poset.  So its order and Hasse diagram are the
    full gap poset's, restricted: `covers` holds the (upper, lower) pairs
    with upper - lower in {a, b}, sorted.  A named tuple: equality, hash,
    `len` and `in` are those of (a, b, elements), so read `elements`.
    """

    __slots__ = ()

    @property
    def covers(self) -> tuple[tuple[int, int], ...]:
        members = set(self.elements)
        return tuple(sorted((p, p - d) for p in self.elements
                            for d in {self.a, self.b} if p - d in members))


def _closure(poset: GapPoset, seeds, step: int) -> set[int]:
    """Up-closure (step 1) or down-closure (step -1) of the seeds in `poset`."""
    members = set(poset.elements)
    seen, stack = set(seeds), list(seeds)
    while stack:
        p = stack.pop()
        for q in (p + step * poset.a, p + step * poset.b):
            if q in members and q not in seen:
                seen.add(q)
                stack.append(q)
    return seen


def gap_count(a: int, b: int) -> int:
    """The (a - 1)(b - 1)/2 gaps of {a, b}, once the generators check out."""
    if a < 1 or b < 1:
        raise ValueError("generators must be positive")
    if gcd(a, b) != 1:
        raise NonCoprimeError(f"gcd({a}, {b}) != 1; the gap set is infinite")
    return (a - 1) * (b - 1) // 2


def abacus_runners(a: int, b: int) -> list[tuple[int, int]]:
    """(t_k, r_k) = divmod(k*b, a) for the nonempty runners
    k = ceil(a/b) .. a - 1 of Anderson's a-abacus of the gaps of {a, b}.

    Runner k holds the t_k gaps r_k + a*i (i < t_k).  An order ideal keeps
    the bottom h_k gaps of every runner, where h_k <= h_{k-1} + t_k - t_{k-1}
    (h_0 = t_0 = 0), because p - b sits t_k - t_{k-1} levels lower on runner
    k - 1; every such height sequence with 0 <= h_k <= t_k is one ideal.
    The empty runners k < a/b force h_k = 0, so they are left out.
    """
    return [divmod(k * b, a) for k in range(-(-a // b), a)]


# A few dozen: no gated CLI job hits it; tests hit it and the tracer clears it.
@lru_cache(maxsize=32)
def gap_poset(a: int, b: int) -> GapPoset:
    """The poset of the gaps of {a, b}, read off `abacus_runners(a, b)`."""
    count = gap_count(a, b)
    gaps = tuple(sorted(r + a * i for t, r in abacus_runners(a, b)
                        for i in range(t)))
    assert len(gaps) == count
    return GapPoset(a, b, gaps)


def induced_subposet(poset: GapPoset, keep) -> GapPoset:
    """Sub-poset on `keep` (original labels), which must be convex:
    everything between two kept elements is kept, so the sub-poset's covers
    are the p - q in {a, b} rule restricted.  ValueError when it is not,
    `ElementNotInPosetError` (a `LookupError`) for an element not in `poset`.
    """
    keep = tuple(sorted(set(keep)))
    outside = set(keep).difference(poset.elements)
    if outside:
        raise ElementNotInPosetError(f"{min(outside)} is not an element of the ambient poset")
    between = _closure(poset, keep, 1) & _closure(poset, keep, -1)
    if len(between) != len(keep):
        raise ValueError(f"not convex: {min(between.difference(keep))} lies "
                         "between kept elements but is not kept")
    return GapPoset(poset.a, poset.b, keep)


class FamilyId(namedtuple("FamilyId", "m j n")):
    """Names one poset in the two-parameter truncation family.

    j = 0 names the plain gap poset of (n, m*n + 1).  For j in [1, m - 1]
    the poset is the gap poset of (n + 1, m*(n + 1) + 1) with its bottom j
    layers removed, the layer of p being floor(p / (n + 1)).
    """

    __slots__ = ()

    def __new__(cls, m: int, j: int, n: int):
        if m < 1 or n < 0 or not 0 <= j <= m - 1:
            raise InvalidFamilyError(
                f"no family poset named (m={m}, j={j}, n={n})")
        return super().__new__(cls, m, j, n)

    @classmethod
    def _make(cls, iterable):   # so `_replace` checks the index too
        return cls(*iterable)

    @property
    def layer_divisor(self) -> int:
        """The a of the gap poset of (a, m*a + 1) whose bottom j layers this
        family drops, and so the denominator of the layer statistic."""
        return self.n if self.j == 0 else self.n + 1


# A few dozen: no gated CLI job hits it; tests hit it and the tracer clears it.
@lru_cache(maxsize=32)
def family_poset(family: FamilyId) -> GapPoset:
    """Materialize the poset named by `family`, with original labels."""
    m, j, a = family.m, family.j, family.layer_divisor
    if a == 0:   # n = j = 0: the empty poset
        return GapPoset(1, m + 1, ())
    poset = gap_poset(a, m * a + 1)
    if j == 0:
        return poset
    return induced_subposet(poset, (p for p in poset.elements if p // a >= j))


# A few entries: `order_ideals` reads each poset's masks once, and an
# unbounded cache would keep every mask tuple alive for the process's life.
@lru_cache(maxsize=16)
def _ideal_masks(poset: GapPoset) -> tuple[int, ...]:
    """Bitmasks (over ascending element index) of every order ideal.

    Elements are visited in increasing numeric order, which is a linear
    extension, so an element may join exactly when all its lower covers are
    already in.  Each ideal is produced once, by its sorted inclusion order.
    The walk keeps its own stack, so a long chain cannot exhaust Python's
    recursion limit; children are pushed in reverse to keep the preorder.
    """
    elems = poset.elements
    index = {e: i for i, e in enumerate(elems)}
    need = [0] * len(elems)
    for hi, lo in poset.covers:
        need[index[hi]] |= 1 << index[lo]
    out = []
    stack = [(0, 0)]
    while stack:
        start, acc = stack.pop()
        out.append(acc)
        for i in range(len(elems) - 1, start - 1, -1):
            ni = need[i]
            if acc & ni == ni:
                stack.append((i + 1, acc | (1 << i)))
    return tuple(out)


def order_ideals(poset: GapPoset) -> tuple[tuple[int, ...], ...]:
    """Every order ideal exactly once, canonically ordered.

    Ideals are returned as ascending member tuples, sorted first by
    cardinality and then lexicographically.
    """
    elems = poset.elements
    # bin(mask)[:1:-1] is the mask's bits from bit 0 up, one character each
    ideals = [tuple(compress(elems, map("1".__eq__, bin(mask)[:1:-1])))
              for mask in _ideal_masks(poset)]
    ideals.sort()
    ideals.sort(key=len)   # stable: lexicographic within each cardinality
    return tuple(ideals)


def to_dot(poset: GapPoset) -> str:
    """Hasse diagram in DOT: one node per element, one edge upper -> lower."""
    return "\n".join(["digraph hasse {", *(f'  "{e}";' for e in poset.elements),
                      *(f'  "{hi}" -> "{lo}";' for hi, lo in poset.covers), "}"])
