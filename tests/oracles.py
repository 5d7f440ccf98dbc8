"""The slope-two isomorphism catalog, checked by the tests.

The paper proves Armstrong's average for a | b - 1 by cutting each gap
poset into smaller copies of itself, as Stanley and Zanello did for
a = b - 1.  At slope two the plain poset of index n is the gap poset of
(n, 2n + 1), and the trimmed poset of index n drops the bottom layer of
the gap poset of (n + 1, 2n + 3).  Every part keeps its labels from the
whole poset, so each copy is given by an explicit element map.
"""

from simcores.posets import FamilyId, family_poset, gap_poset, induced_subposet


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
    return induced_subposet(poset, poset._closure(prefix, 1) - set(prefix)
                            - poset._closure(rest, 1))


def detached_part(poset, i):
    """Elements incomparable to each of the first i minimal elements."""
    mins = minimal_elements(poset)
    if not 1 <= i <= len(mins):
        raise ValueError(f"i must be in [1, {len(mins)}], got {i}")
    return induced_subposet(poset, set(poset.elements)
                            - poset._closure(mins[:i], 1))


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
    assert len(images) == len(target) and set(images) == set(target.elements), \
        f"not a bijection onto {target}"
    assert {(mapping[hi], mapping[lo]) for hi, lo in source.covers} \
        == set(target.covers), f"covers not carried onto {target}"
