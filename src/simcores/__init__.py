"""Exact enumeration and verification for simultaneous core partitions.

Cores avoiding two coprime hook lengths correspond to order ideals of a
finite gap poset; this package enumerates both sides, computes the exact
ideal statistics, and verifies the closed forms and identities they satisfy,
up to and including the average-size formula, with no floating point.

The names below are exported lazily (PEP 562): `simcores.X` imports the
submodule that defines X on first use, so importing the package, or running
`python -m simcores.cli`, loads no submodule it does not need.  The series
constructor is `simcores.series.series`: `simcores.series` is the submodule.
"""

from importlib import import_module

_EXPORTS = {
    "betaset": ("NotBetaSetError", "cores_by_size", "ideal_to_partition",
                "partition_to_ideal"),
    "cli": ("EnumerationTooLargeError",),
    "posets": ("ElementNotInPosetError", "FamilyId", "GapPoset",
               "InvalidFamilyError", "NonCoprimeError", "abacus_runners",
               "family_poset", "gap_poset", "order_ideals", "to_dot"),
    "series": ("CrossCheck", "DivisionByNonUnitError", "IdentityCheck",
               "IntegralityViolationError", "SeriesBundle", "TruncatedSeries",
               "check_identities", "constant", "cross_check",
               "fuss_catalan_number", "fuss_catalan_series", "stat_series"),
    "stats": ("AverageSizeCheck", "RecursionCheck", "StatRecord",
              "average_size_check", "compute_stats", "core_count",
              "verify_stat_recursions"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_HOME[name]}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
