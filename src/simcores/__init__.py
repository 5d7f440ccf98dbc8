"""Exact enumeration and verification for simultaneous core partitions.

Cores avoiding two coprime hook lengths correspond to order ideals of a
finite gap poset; this package enumerates both sides, computes the exact
ideal statistics, and verifies the closed forms and identities they satisfy,
up to and including the average-size formula, with no floating point.
"""

from .betaset import (NotBetaSetError, core_partitions, ideal_to_partition,
                      partition_to_ideal, size_via_ideal)
from .partitions import (conjugate, enumerate_cores_bounded, hook_lengths,
                         is_core, partitions_of)
from .posets import (ElementNotInPosetError, FamilyId, GapPoset,
                     InvalidFamilyError, IsomorphismInstance,
                     IsomorphismReport, NonCoprimeError, abacus_runners,
                     above_prefix_iso, above_prefix_part, check_isomorphism,
                     detached_iso, detached_part, family_poset, gap_poset,
                     layer_index, minimal_elements, order_ideals, to_dot,
                     trimmed_above_prefix_iso, trimmed_detached_iso,
                     trimmed_reflection_iso)
from .series import (CrossCheck, DivisionByNonUnitError, IdentityCheck,
                     IntegralityViolationError, SeriesBundle, TruncatedSeries,
                     check_identities, constant, cross_check,
                     fuss_catalan_number, fuss_catalan_series, series,
                     stat_series)
from .stats import (AverageSizeCheck, EnumerationTooLargeError,
                    RecursionCheck, StatRecord, average_size_check,
                    compute_stats, core_count, is_slope_pair,
                    verify_stat_recursions)

__version__ = "0.1.0"
