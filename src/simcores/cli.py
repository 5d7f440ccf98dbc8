"""Command-line surface: enumerate cores, export posets, run verifications.

Exit codes: 0 when every reported check passes, 1 when a verification
failed (reports are still emitted) or an exact computation broke its own
arithmetic check (an `ArithmeticError` such as `IntegralityViolationError`:
an `error:` line on stderr instead of a report), 2 for usage errors, for a
job over a guard (a closed form of the command's arguments, checked before
any work and lifted by `--unsafe-limits`) and when stdout is closed before
the report is written (`simcores ... | head`).
"""

import argparse
import json
import os
import sys

from .betaset import core_partitions
from .partitions import canonical_order
from .posets import FamilyId, gap_count, gap_poset, to_dot
from .series import check_identities, cross_check
from .stats import (EnumerationTooLargeError, average_size_check,
                    compute_stats, core_count, verify_stat_recursions)

MAX_LISTED_PARTS = 6_250_000   # (11, 13) lists 6,240,360
MAX_LISTED_GAPS = 2_499        # the largest g with g(g + 1) <= that
MAX_POSET_SIZE = 60
MAX_M = 40
MAX_GRID_ELEMENTS = 400_000    # m = 6, n <= 40 has 396,060
MAX_ORDER = 40


def _guard(args, size, limit, what):
    """Refuse a job whose `size` is above `limit`, unless --unsafe-limits."""
    if size > limit and not args.unsafe_limits:
        raise EnumerationTooLargeError(
            f"{what} is {size}, above the guard of {limit}; "
            "pass --unsafe-limits to override")


def _guard_grid(args):
    """Guard --m and the poset elements of the grid j < m, n <= max_n, the
    sum over n of C(mn, 2) (the truncations of one n together)."""
    m, n = args.m, args.max_n
    _guard(args, m, MAX_M, "--m")
    _guard(args, m * n * (n + 1) * (m * (2 * n + 1) - 3) // 12,
           MAX_GRID_ELEMENTS, f"the element count of the m={m}, n<={n} grid")


def _int_at_least(low):
    """An argparse type for integers no smaller than `low`."""
    def integer(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return integer


def _cmd_cores(args):
    # Each core's hook set is an ideal of the gaps, so a listing has at most
    # gaps * core_count parts.  g gaps have g + 1 ideals or more: the gap
    # guard refuses no listing the parts guard admits, and keeps the binomial
    # of core_count small.
    gaps = gap_count(args.a, args.b)
    _guard(args, gaps, MAX_LISTED_GAPS,
           f"the size of the gap poset of ({args.a}, {args.b})")
    _guard(args, gaps * core_count(args.a, args.b), MAX_LISTED_PARTS,
           f"the part count of the ({args.a}, {args.b})-core listing")
    check = average_size_check(args.a, args.b)
    cores = canonical_order(core_partitions(args.a, args.b))
    # the listing and the lattice-path transfer are independent routes
    listed = len(cores), sum(map(sum, cores))
    if listed != (check.count, check.total):
        raise ArithmeticError(
            f"the listing has {listed[0]} cores of total size {listed[1]}, the "
            f"transfer counts {check.count} of total size {check.total}")
    if args.format == "json":
        # json.dumps(payload, indent=2), written core by core
        head = json.dumps({"a": args.a, "b": args.b, "count": check.count,
                           "total_size": check.total,
                           "average": str(check.average),
                           "matches": check.matches}, indent=2)
        blocks = ("[\n      " + ",\n      ".join(map(str, p)) + "\n    ]"
                  if p else "[]" for p in cores)
        sys.stdout.write(head[:-2] + ',\n  "cores": [\n    ' + next(blocks))
        sys.stdout.writelines(",\n    " + block for block in blocks)
        sys.stdout.write("\n  ]\n}\n")
    elif args.format == "csv":
        # CSV by hand, here and in `_report`: no field holds a comma, a
        # quote or a newline, so none needs quoting
        sys.stdout.write("parts,size\n")
        sys.stdout.writelines(f"{' '.join(map(str, p))},{sum(p)}\n"
                              for p in cores)
    else:
        print(f"({args.a}, {args.b})-cores: {check.count}")
        print(f"total size: {check.total}")
        print(f"average size: {check.average}")
        print(f"matches closed form: {'yes' if check.matches else 'no'}")
        sys.stdout.writelines(f"  {list(p)}\n" for p in cores)
    return 0 if check.matches else 1


def _cmd_poset(args):
    _guard(args, gap_count(args.a, args.b), MAX_POSET_SIZE,
           f"the size of the gap poset of ({args.a}, {args.b})")
    poset = gap_poset(args.a, args.b)
    if args.format == "dot":
        print(to_dot(poset))
    elif args.format == "json":
        print(json.dumps({"a": poset.a, "b": poset.b,
                          "elements": poset.elements,
                          "covers": poset.covers}, indent=2))
    else:
        print(f"elements: {list(poset.elements)}")
        for hi, lo in poset.covers:
            print(f"  {hi} covers {lo}")
    return 0


def _cmd_stats(args):
    _guard_grid(args)
    rows = []
    for j in range(args.m):
        for n in range(args.max_n + 1):
            rec = compute_stats(FamilyId(args.m, j, n))
            rows.append({"m": args.m, "j": j, "n": n,
                         "ideal_count": rec.ideal_count,
                         "member_sum": rec.member_sum,
                         "layer_sum": rec.layer_sum,
                         "core_size_sum": rec.core_size_sum})
    return _report(rows, args,
                   "m={m} j={j} n={n}: ideals={ideal_count} members={member_sum} "
                   "layers={layer_sum} sizes={core_size_sum}")


def _report(rows, args, plain):
    """Print `rows` as JSON, CSV (header from the first row's keys) or one
    `plain.format_map(row)` line each, led by "ok   " or "FAIL " when the row
    has a "pass" key; exit 1 when a row carries a false "pass"."""
    if args.format == "json":
        print(json.dumps(rows, indent=2))
    elif args.format == "csv":
        print(",".join(rows[0]) if rows else "")
        for r in rows:
            print(",".join(map(str, r.values())))
    else:
        for r in rows:
            mark = ("ok   " if r["pass"] else "FAIL ") if "pass" in r else ""
            print(mark + plain.format_map(r))
    return 0 if all(r.get("pass", True) for r in rows) else 1


def _cmd_recursions(args):
    _guard_grid(args)
    checks = verify_stat_recursions(args.m, args.max_n)
    rows = [{"name": c.name, "m": c.m, "n": c.n, "lhs": c.lhs, "rhs": c.rhs,
             "pass": c.passed} for c in checks]
    return _report(rows, args, "{name} n={n}: {lhs} == {rhs}")


def _cmd_series_verify(args):
    _guard(args, args.m, MAX_M, "--m")
    _guard(args, args.order, MAX_ORDER, "the series order")
    checks = check_identities(args.m, args.order)
    rows = [{"identity_name": c.identity, "m": c.m,
             "effective_order": c.effective_order,
             "residual_max_abs": str(c.residual_max_abs),
             "pass": c.passed} for c in checks]
    return _report(rows, args, "{identity_name} (order {effective_order}): "
                               "residual {residual_max_abs}")


def _cmd_cross_check(args):
    _guard_grid(args)
    checks = cross_check(args.m, args.max_n)
    rows = [{"m": c.m, "j": c.j, "n": c.n, "statistic": c.statistic,
             "series_value": c.series_value,
             "enumerated_value": c.enumerated_value,
             "pass": c.passed} for c in checks]
    return _report(rows, args, "j={j} n={n} {statistic}: "
                               "{series_value} == {enumerated_value}")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="simcores",
        description="Exact enumeration and verification for simultaneous "
                    "core partitions.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, formats=("plain", "json", "csv")):
        p.add_argument("--format", choices=formats, default=formats[0])
        p.add_argument("--unsafe-limits", action="store_true",
                       help="lift this command's guards")

    def grid(p):
        p.add_argument("--m", type=_int_at_least(1), required=True)
        p.add_argument("--max-n", type=_int_at_least(0), required=True)
        common(p)

    p = sub.add_parser("cores", help="enumerate all cores of a coprime pair "
                                     "and check the average-size formula")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    common(p)
    p.set_defaults(func=_cmd_cores)

    p = sub.add_parser("poset", help="print the gap poset of a coprime pair")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    common(p, formats=("dot", "json", "plain"))
    p.set_defaults(func=_cmd_poset)

    p = sub.add_parser("stats", help="statistic totals on the (m, j, n) grid")
    grid(p)
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("recursions", help="verify the convolution recursions "
                                          "against enumeration")
    grid(p)
    p.set_defaults(func=_cmd_recursions)

    p = sub.add_parser("series-verify", help="verify the power-series "
                                             "identity ledger")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--order", type=int, default=12)
    common(p)
    p.set_defaults(func=_cmd_series_verify)

    p = sub.add_parser("cross-check", help="series coefficients against "
                                           "brute-force enumeration")
    grid(p)
    p.set_defaults(func=_cmd_cross_check)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader left early (the flush above surfaces it here): send what
        # is still buffered to devnull so the flush at exit cannot raise.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    except (EnumerationTooLargeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
