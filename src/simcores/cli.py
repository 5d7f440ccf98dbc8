"""Command-line surface: enumerate cores, export posets, run verifications.

Exit codes: 0 when every reported check passes, 1 when a verification
failed (reports are still emitted), 2 for usage or guard errors and when
stdout is closed before the report is written (`simcores ... | head`).
"""

import argparse
import csv
import json
import os
import sys

from .betaset import ideal_to_partition
from .posets import (FamilyId, InvalidFamilyError, NonCoprimeError,
                     gap_poset, order_ideals, to_dot)
from .series import check_identities, cross_check
from .stats import (DEFAULT_MAX_POSET_SIZE, EnumerationTooLargeError, _guard,
                    average_size_check, compute_stats, is_slope_pair,
                    verify_stat_recursions)

MAX_ORDER = 24


def _limit(args, guard=DEFAULT_MAX_POSET_SIZE):
    """The guard to enforce: `guard`, or none under --unsafe-limits."""
    return None if args.unsafe_limits else guard


def _int_at_least(low):
    """An argparse type for integers no smaller than `low`."""
    def integer(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return integer


def _write_csv(header, rows):
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


def _cmd_cores(args):
    check = average_size_check(args.a, args.b, max_poset_size=_limit(args))
    poset = gap_poset(args.a, args.b)
    cores = sorted((ideal_to_partition(members) for members in order_ideals(poset)),
                   key=lambda p: (sum(p), tuple(-q for q in p)))
    if args.format == "json":
        payload = {
            "a": args.a,
            "b": args.b,
            "count": check.count,
            "total_size": check.total,
            "average": str(check.average),
            "matches": check.matches,
            "cores": [list(p) for p in cores],
        }
        print(json.dumps(payload, indent=2))
    elif args.format == "csv":
        _write_csv(["parts", "size"],
                   [[" ".join(map(str, p)), sum(p)] for p in cores])
    else:
        print(f"({args.a}, {args.b})-cores: {check.count}")
        print(f"total size: {check.total}")
        print(f"average size: {check.average}")
        print(f"matches closed form: {'yes' if check.matches else 'no'}")
        for p in cores:
            print(f"  {list(p)}")
    if check.matches:
        return 0
    return 1 if is_slope_pair(args.a, args.b) or args.assert_general else 0


def _cmd_poset(args):
    poset = gap_poset(args.a, args.b)
    _guard(len(poset), _limit(args),
           f"the size of the gap poset of ({args.a}, {args.b})")
    if args.format == "dot":
        print(to_dot(poset))
    elif args.format == "json":
        print(json.dumps({"a": poset.a, "b": poset.b,
                          "elements": list(poset.elements),
                          "covers": [list(c) for c in poset.covers]}, indent=2))
    else:
        print(f"elements: {list(poset.elements)}")
        for hi, lo in poset.covers:
            print(f"  {hi} covers {lo}")
    return 0


def _cmd_stats(args):
    rows = []
    for j in range(args.m):
        for n in range(args.max_n + 1):
            rec = compute_stats(FamilyId(args.m, j, n), _limit(args))
            rows.append({"m": args.m, "j": j, "n": n,
                         "ideal_count": rec.ideal_count,
                         "member_sum": rec.member_sum,
                         "layer_sum": rec.layer_sum,
                         "core_size_sum": rec.core_size_sum})
    if args.format == "json":
        print(json.dumps(rows, indent=2))
    elif args.format == "csv":
        _write_csv(["m", "j", "n", "ideal_count", "member_sum",
                    "layer_sum", "core_size_sum"],
                   [[r[k] for k in ("m", "j", "n", "ideal_count", "member_sum",
                                    "layer_sum", "core_size_sum")] for r in rows])
    else:
        for r in rows:
            print("m={m} j={j} n={n}: ideals={ideal_count} members={member_sum} "
                  "layers={layer_sum} sizes={core_size_sum}".format(**r))
    return 0


def _report(rows, args, plain):
    if args.format == "json":
        print(json.dumps(rows, indent=2))
    elif args.format == "csv":
        header = list(rows[0]) if rows else []
        _write_csv(header, [[r[k] for k in header] for r in rows])
    else:
        for r in rows:
            print(plain(r))
    return 0 if all(r["pass"] for r in rows) else 1


def _cmd_recursions(args):
    checks = verify_stat_recursions(args.m, args.max_n,
                                    max_poset_size=_limit(args))
    rows = [{"name": c.name, "m": c.m, "n": c.n, "lhs": c.lhs, "rhs": c.rhs,
             "pass": c.passed} for c in checks]
    return _report(rows, args,
                   lambda r: "{} {} n={}: {} == {}".format(
                       "ok  " if r["pass"] else "FAIL", r["name"], r["n"],
                       r["lhs"], r["rhs"]))


def _cmd_series_verify(args):
    _guard(args.order, _limit(args, MAX_ORDER), "the series order")
    checks = check_identities(args.m, args.order)
    rows = [{"identity_name": c.identity, "m": c.m,
             "effective_order": c.effective_order,
             "residual_max_abs": str(c.residual_max_abs),
             "pass": c.passed} for c in checks]
    return _report(rows, args,
                   lambda r: "{} {} (order {}): residual {}".format(
                       "ok  " if r["pass"] else "FAIL", r["identity_name"],
                       r["effective_order"], r["residual_max_abs"]))


def _cmd_cross_check(args):
    checks = cross_check(args.m, args.max_n, max_poset_size=_limit(args))
    rows = [{"m": c.m, "j": c.j, "n": c.n, "statistic": c.statistic,
             "series_value": c.series_value,
             "enumerated_value": c.enumerated_value,
             "pass": c.passed} for c in checks]
    return _report(rows, args,
                   lambda r: "{} j={} n={} {}: {} == {}".format(
                       "ok  " if r["pass"] else "FAIL", r["j"], r["n"],
                       r["statistic"], r["series_value"], r["enumerated_value"]))


def build_parser():
    parser = argparse.ArgumentParser(
        prog="simcores",
        description="Exact enumeration and verification for simultaneous "
                    "core partitions.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, formats=("plain", "json", "csv")):
        p.add_argument("--format", choices=formats, default=formats[0])
        p.add_argument("--unsafe-limits", action="store_true",
                       help="lift the enumeration and order guards")

    def grid(p):
        p.add_argument("--m", type=_int_at_least(1), required=True)
        p.add_argument("--max-n", type=_int_at_least(0), required=True)
        common(p)

    p = sub.add_parser("cores", help="enumerate all cores of a coprime pair "
                                     "and check the average-size formula")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--assert-general", action="store_true",
                   help="exit 1 on a mismatch even for pairs outside the "
                        "slope family")
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
    except EnumerationTooLargeError as exc:
        print(f"error: {exc}; pass --unsafe-limits to override", file=sys.stderr)
        return 2
    except (NonCoprimeError, InvalidFamilyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
