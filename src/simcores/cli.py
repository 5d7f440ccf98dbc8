"""Command-line surface: enumerate cores, export posets, run verifications.

Exit codes: 0 when every reported check passes, 1 when a verification
failed (reports are still emitted) or an exact computation broke its own
arithmetic check (an `ArithmeticError` such as `IntegralityViolationError`:
an `error:` line on stderr instead of a report), 2 for usage errors, for a
job over a guard (a closed form of the command's arguments, checked before
any work and lifted by `--unsafe-limits`) and when stdout is closed before
the report is written (`simcores ... | head`).  A usage or guard error
writes nothing to stdout.  `cores` writes its listing class by class, so
when it exits 1 on its `error:` line stdout keeps what came before the
fault, and never the tail: the head and the classes below that of the
first core failing its hook-set check, or every class when the count or
total size disagrees with the transfer.

Each subcommand imports the library modules it runs when it runs, so a job
loads only those, and `--help` none.  A job written in the plain form (see
`_plain_args`) loads no `argparse` either; `--help`, usage errors and the
other spellings argparse accepts (`--m=2`, `--max 4`) do.
"""

import os
import sys
from math import gcd
from types import SimpleNamespace

# bounds gaps * core_count, 6,240,360 for (11, 13), whose listing itself
# holds 2,108,752 parts
MAX_LISTED_PARTS = 6_250_000
MAX_LISTED_GAPS = 2_499        # the largest g with g(g + 1) <= that
MAX_POSET_SIZE = 60
MAX_M = 40
MAX_GRID_ELEMENTS = 400_000    # m = 6, n <= 40 has 396,060
MAX_ORDER = 40


class EnumerationTooLargeError(RuntimeError):
    """A CLI job over its guard, a closed form of the command's arguments."""


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
    from argparse import ArgumentTypeError

    def integer(text):
        value = int(text)
        if value < low:
            raise ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return integer


def _print_json(value):
    """Print `json.dumps(value, indent=2)` chunk by chunk, never whole; only
    the reports' and `poset`'s --format json load `json`."""
    import json
    sys.stdout.writelines(json.JSONEncoder(indent=2).iterencode(value))
    print()


def _ratio(num, den):
    """num/den (den > 0) in lowest terms, as `str(Fraction(num, den))` does."""
    g = gcd(num, den)
    return str(num // g) if den == g else f"{num // g}/{den // g}"


def _cmd_cores(args):
    from .betaset import cores_by_size
    from .posets import gap_count
    from .stats import average_size_check, core_count

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
    average = _ratio(check.total, check.count)
    # each format as one row: its head, which ends with class 0, the empty
    # core alone; the `lead` before each core; the part separator `sep`; the
    # separator `held` that the walk files each core's text with; the
    # `close` after each core, filled with its class size; and its tail.
    # JSON is `json.dumps(..., indent=2)` by hand, as CSV is here and in
    # `_report`: no field holds a character either would escape or quote.
    head, lead, sep, held, close, tail = {
        "plain": (f"({args.a}, {args.b})-cores: {check.count}\n"
                  f"total size: {check.total}\naverage size: {average}\n"
                  f"matches closed form: {'yes' if check.matches else 'no'}"
                  "\n  []\n", "  [", ", ", ", ", "]\n", ""),
        "json": (f'{{\n  "a": {args.a},\n  "b": {args.b},\n'
                 f'  "count": {check.count},\n  "total_size": {check.total},\n'
                 f'  "average": "{average}",\n'
                 f'  "matches": {"true" if check.matches else "false"},\n'
                 '  "cores": [\n    []', ",\n    [\n      ", ",\n      ", "|",
                 "\n    ]", "\n  ]\n}\n"),
        "csv": ("parts,size\n,0\n", "", " ", " ", ",{}\n", ""),
    }[args.format]
    # the call checks the pair before any byte is written; the walk runs as
    # the loop below takes its classes
    walk = cores_by_size(args.a, args.b, held)
    write = sys.stdout.write
    write(head)
    # each class is written as the walk yields it and then dropped: its
    # texts joined by the close and lead between two cores, in three writes.
    # Plain and CSV texts hold their own `sep`, so the `replace` returns its
    # argument without a pass (`held is sep`).  JSON's separator is 8
    # characters, which would lengthen every text the walk holds, so its
    # texts hold "|", which no row field and no digit contains, and one
    # pass a class fills in the separator.  A core failing its hook-set
    # check stops the walk before its class is written; the count and
    # total, a route independent of the transfer, are held to it after the
    # last class, so a failed listing has no tail.
    count = total = 0
    for size, texts in walk:
        count += len(texts)
        total += size * len(texts)
        if size:
            end = close.format(size)
            write(lead)
            write((end + lead).join(texts).replace(held, sep))
            write(end)
    if (count, total) != (check.count, check.total):
        raise ArithmeticError(
            f"the listing has {count} cores of total size {total}, the "
            f"transfer counts {check.count} of total size {check.total}")
    write(tail)
    return 0 if check.matches else 1


def _cmd_poset(args):
    from .posets import gap_count, gap_poset, to_dot

    _guard(args, gap_count(args.a, args.b), MAX_POSET_SIZE,
           f"the size of the gap poset of ({args.a}, {args.b})")
    poset = gap_poset(args.a, args.b)
    if args.format == "dot":
        print(to_dot(poset))
    elif args.format == "json":
        _print_json({"a": poset.a, "b": poset.b, "elements": poset.elements,
                     "covers": poset.covers})
    else:
        print(f"elements: {list(poset.elements)}")
        for hi, lo in poset.covers:
            print(f"  {hi} covers {lo}")
    return 0


def _cmd_stats(args):
    from .stats import StatRecord, compute_stats

    _guard_grid(args)
    return _report(compute_stats(args.m, args.max_n), args, StatRecord._fields,
                   "m={m} j={j} n={n}: ideals={ideal_count} members={member_sum} "
                   "layers={layer_sum} sizes={core_size_sum}")


def _report(records, args, columns, plain):
    """Print each record as the row `dict(zip(columns, record))`, fields past
    the last column (`IdentityCheck.kind`) unprinted: as JSON, as CSV under
    the header `columns`, or as `plain.format_map(row)` lines led by "ok   "
    or "FAIL " when a column is "pass"; exit 1 on a row with a false "pass"."""
    rows = [dict(zip(columns, record)) for record in records]
    if args.format == "json":
        _print_json(rows)
    elif args.format == "csv":
        print(",".join(columns))
        for r in rows:
            print(",".join(map(str, r.values())))
    else:
        for r in rows:
            mark = ("ok   " if r["pass"] else "FAIL ") if "pass" in r else ""
            print(mark + plain.format_map(r))
    return 0 if all(r.get("pass", True) for r in rows) else 1


def _cmd_recursions(args):
    from .stats import verify_stat_recursions

    _guard_grid(args)
    return _report(verify_stat_recursions(args.m, args.max_n), args,
                   ("name", "m", "n", "lhs", "rhs", "pass"),
                   "{name} n={n}: {lhs} == {rhs}")


def _cmd_series_verify(args):
    from .series import check_identities

    _guard(args, args.m, MAX_M, "--m")
    _guard(args, args.order, MAX_ORDER, "the series order")
    return _report([c._replace(residual_max_abs=str(c.residual_max_abs))
                    for c in check_identities(args.m, args.order)], args,
                   ("identity_name", "m", "effective_order",
                    "residual_max_abs", "pass"),
                   "{identity_name} (order {effective_order}): "
                   "residual {residual_max_abs}")


def _cmd_cross_check(args):
    from .series import cross_check

    _guard_grid(args)
    return _report(cross_check(args.m, args.max_n), args,
                   ("m", "j", "n", "statistic", "series_value",
                    "enumerated_value", "pass"),
                   "j={j} n={n} {statistic}: "
                   "{series_value} == {enumerated_value}")


FORMATS = ("plain", "json", "csv")
PAIR = (("a", None, None), ("b", None, None))
GRID = (("m", 1, None), ("max_n", 0, None))

# Each subcommand once, in its --help order: its function, its help, its int
# flags as (dest, lower bound or None, default or None when required) and its
# formats, the first the default.  Every subcommand also takes --format and
# --unsafe-limits.  `build_parser` and `_plain_args` both read this table.
COMMANDS = {
    "cores": (_cmd_cores, "enumerate all cores of a coprime pair and check "
                          "the average-size formula", PAIR, FORMATS),
    "poset": (_cmd_poset, "print the gap poset of a coprime pair", PAIR,
              ("dot", "json", "plain")),
    "stats": (_cmd_stats, "statistic totals on the (m, j, n) grid", GRID,
              FORMATS),
    "recursions": (_cmd_recursions, "verify the convolution recursions "
                                    "against enumeration", GRID, FORMATS),
    "series-verify": (_cmd_series_verify, "verify the power-series identity "
                                          "ledger",
                      (("m", None, None), ("order", None, 12)), FORMATS),
    "cross-check": (_cmd_cross_check, "series coefficients against "
                                      "brute-force enumeration", GRID, FORMATS),
}


def _option(dest):
    return "--" + dest.replace("_", "-")


def build_parser():
    """The argparse parser of `COMMANDS`, for --help and usage errors."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="simcores",
        description="Exact enumeration and verification for simultaneous "
                    "core partitions.")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (func, text, flags, formats) in COMMANDS.items():
        p = sub.add_parser(name, help=text)
        for dest, low, default in flags:
            p.add_argument(_option(dest), required=default is None,
                           default=default,
                           type=int if low is None else _int_at_least(low))
        p.add_argument("--format", choices=formats, default=formats[0])
        p.add_argument("--unsafe-limits", action="store_true",
                       help="lift this command's guards")
        p.set_defaults(func=func)
    return parser


def _plain_args(argv):
    """The namespace `build_parser().parse_args(argv)` returns, read without
    argparse, when argv is a subcommand followed by each of its flags once,
    in any order, as `--flag value` or a bare `--unsafe-limits`; None for
    any other argv, which is left to argparse: help, `--flag=value`,
    abbreviations, a value led by "-", a missing, repeated or unknown flag
    and a value argparse would refuse."""
    if not argv or argv[0] not in COMMANDS:
        return None
    func, _, flags, formats = COMMANDS[argv[0]]
    ints = {_option(dest): (dest, low) for dest, low, _ in flags}
    args = SimpleNamespace(subcommand=argv[0], func=func, format=formats[0],
                           unsafe_limits=False,
                           **{dest: default for dest, _, default in flags})
    tokens, seen = iter(argv[1:]), set()
    for flag in tokens:
        if flag in seen:
            return None
        seen.add(flag)
        if flag == "--unsafe-limits":
            args.unsafe_limits = True
            continue
        value = next(tokens, "-")
        if value.startswith("-"):
            return None
        if flag == "--format" and value in formats:
            args.format = value
        elif flag in ints:
            dest, low = ints[flag]
            try:
                number = int(value)
            except ValueError:
                return None
            if low is not None and number < low:
                return None
            setattr(args, dest, number)
        else:
            return None
    if any(getattr(args, dest) is None for dest, _, _ in flags):
        return None
    return args


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _plain_args(argv) or build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader left early (the flush above surfaces it here): send what
        # is still buffered to devnull so the flush at exit cannot raise.
        with open(os.devnull, "wb") as sink:
            os.dup2(sink.fileno(), sys.stdout.fileno())
        return 2
    except (EnumerationTooLargeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
