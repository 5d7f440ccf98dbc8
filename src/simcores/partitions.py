"""The validation of integer partitions: tuples of weakly decreasing positive
parts, the empty tuple being the empty partition.  The hook-length oracles
that check `betaset` against partitions live in `tests/oracles.py`."""

from collections.abc import Iterable


def check_partition(parts: Iterable[int]) -> tuple[int, ...]:
    """Coerce to a tuple and validate positivity and weak decrease."""
    out = tuple(parts)
    for i, p in enumerate(out):
        if not isinstance(p, int) or p < 1:
            raise ValueError(f"parts must be positive integers, got {p!r}")
        if i and out[i - 1] < p:
            raise ValueError(f"parts must be weakly decreasing, got {out}")
    return out
