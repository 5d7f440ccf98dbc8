import contextlib
import hashlib
import importlib
import io
import json
import os
import pkgutil
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from itertools import groupby
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import simcores
from oracles import canonical_order, walk_with_hook_fault
from simcores import betaset, cli, stats
from simcores.cli import _plain_args, _report, build_parser, main
from simcores.posets import gap_poset, order_ideals
from simcores.series import IntegralityViolationError

FORMATS = ("plain", "json", "csv")


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_cores_json(capsys):
    code, out, err = run(capsys, "cores", "--a", "3", "--b", "7",
                         "--format", "json")
    payload = json.loads(out)
    assert code == 0
    assert payload["count"] == 12
    assert payload["total_size"] == 66
    assert payload["average"] == "11/2"
    assert payload["matches"] is True
    assert [5, 3, 1, 1] in payload["cores"]
    assert payload["cores"][0] == []


@pytest.mark.parametrize("a,b,average", [(1, 1, "0"), (2, 3, "1/2"),
                                         (3, 4, "2"), (3, 7, "11/2")])
def test_cores_average_in_every_format(capsys, a, b, average):
    # a zero average, a ratio and a whole number; JSON and plain print the
    # one reduced string, str(Fraction(total, count)), and CSV lists the cores
    argv = ["cores", "--a", str(a), "--b", str(b)]
    code, out, _ = run(capsys, *argv, "--format", "json")
    payload = json.loads(out)
    count, total = payload["count"], payload["total_size"]
    assert code == 0 and payload["matches"] is True
    assert payload["average"] == average == str(Fraction(total, count))
    code, out, _ = run(capsys, *argv, "--format", "plain")
    assert code == 0
    assert out.splitlines()[:4] == [f"({a}, {b})-cores: {count}",
                                    f"total size: {total}",
                                    f"average size: {average}",
                                    "matches closed form: yes"]
    code, out, _ = run(capsys, *argv, "--format", "csv")
    rows = out.splitlines()
    assert code == 0 and rows[0] == "parts,size" and len(rows) == count + 1
    assert sum(int(row.rsplit(",", 1)[1]) for row in rows[1:]) == total


@given(st.integers(-10**40, 10**40), st.integers(1, 10**40))
def test_ratio_is_the_reduced_fraction(num, den):
    assert cli._ratio(num, den) == str(Fraction(num, den))


def test_cores_noncoprime_exits_2(capsys):
    code, out, err = run(capsys, "cores", "--a", "2", "--b", "4")
    assert code == 2
    assert "gcd" in err


def test_cores_plain_and_csv(capsys):
    code, out, _ = run(capsys, "cores", "--a", "2", "--b", "5")
    assert code == 0
    assert "(2, 5)-cores: 3" in out
    code, out, _ = run(capsys, "cores", "--a", "2", "--b", "5",
                       "--format", "csv")
    assert out.splitlines()[0] == "parts,size"
    assert "2 1,3" in out


def test_poset_dot(capsys):
    code, out, _ = run(capsys, "poset", "--a", "3", "--b", "7")
    assert code == 0
    assert out.startswith("digraph hasse {")
    assert '"11" -> "8";' in out


def test_poset_json_deterministic(capsys):
    _, first, _ = run(capsys, "poset", "--a", "4", "--b", "9",
                      "--format", "json")
    _, second, _ = run(capsys, "poset", "--a", "4", "--b", "9",
                       "--format", "json")
    assert first == second
    payload = json.loads(first)
    assert payload["elements"] == [1, 2, 3, 5, 6, 7, 10, 11, 14, 15, 19, 23]


def test_poset_guard(capsys):
    code, _, err = run(capsys, "poset", "--a", "11", "--b", "14")
    assert code == 2
    assert "guard" in err


# SHA-256 and length of the `poset` stdout, recorded before covers were
# derived from (a, b); a reordered or missing cover changes the digest.
POSET_GOLDEN = {
    (6, 13, "dot"):
        (953, "6931e338f22fbf1c1bbd7895fc6241573cf6a45e53cb6362f204d2af197c8561"),
    (6, 13, "json"):
        (1717, "92801e4fa83b6822e04a0cfef86c2046740d349c39a1478efd498f83cafb1dc4"),
    (6, 13, "plain"):
        (781, "9d33253e164f382d5fc267a33c3efe51adadeae76a572c3806862cb3c4cbb766"),
    (8, 17, "dot"):
        (1906, "127209ea4757ac8b3fa6b65d7edb3f9aba7a5f95dd94e5fe8a543909e185fbf2"),
    (8, 17, "json"):
        (3406, "dab405dee408f00fdf68a5062865c7532e45a063b0e12ad9d2aebe0e773906a3"),
    (8, 17, "plain"):
        (1584, "1b98d59d0a57a6461c096636f6d4f415bade554398f91de73339e1d6b0ced180"),
}


@pytest.mark.parametrize("a,b,fmt", sorted(POSET_GOLDEN))
def test_poset_output_is_pinned(capsys, a, b, fmt):
    code, out, _ = run(capsys, "poset", "--a", str(a), "--b", str(b),
                       "--format", fmt)
    data = out.encode()
    assert code == 0
    assert (len(data), hashlib.sha256(data).hexdigest()) == POSET_GOLDEN[(a, b, fmt)]


# SHA-256 and length of the `cores` stdout, recorded before the canonical core
# order had one definition.  These pairs have 12, 1,428 and 4,862 cores, so
# many cores tie on size and the tie-break (descending parts) is exercised.
# (13, 6), recorded before cores were listed from the abacus heights, puts
# the larger generator first: its CSV equals (6, 13)'s, having no a or b.
CORES_GOLDEN = {
    (3, 7, "plain"):
        (213, "733982622ad061a0222ed4a8701624a33647eeca262d2cc0c7a6ef7804453ae4"),
    (3, 7, "json"):
        (552, "060c2251e13a6ab669ac9c241532907d58bd485cf6d9ae937a25da136153ac28"),
    (3, 7, "csv"):
        (105, "17ec443c4868c9d2793a963c944be13a5372d3cd3889a5b70a5d380e46aa12d1"),
    (6, 13, "plain"):
        (55441, "2f6725a91d917fc32b6b5adad343a202cf4e7ae47008db93e07c8213bddcad06"),
    (6, 13, "json"):
        (166678, "76752947301eee31b980c5d8321a1999b3c5214e5054925279a0bd61ede2961c"),
    (6, 13, "csv"):
        (39061, "ba572c646028d8e6fed7bfa5e4e49a62e11c2cbc2b2440ed706bcc6eddcbf009"),
    (9, 10, "plain"):
        (212222, "783caf156e0b6a819ff61a38e54d4161e0c714cee727eba2a6c7d4eda7cb3403"),
    (9, 10, "json"):
        (634037, "b4cc523efd098e2a4240c90d8cebc6246c3dcb46ad37c7caabcef1c01d4f9b88"),
    (9, 10, "csv"):
        (149789, "1457b07817d06b50356c96cf5bdc0411a155bb0a8fc4d0d58d8d1e8f989884cb"),
    (13, 6, "plain"):
        (55441, "0a42c64a818887ab3f9d0e4b2f5156f1d68b65a4423b1f685fd378cb3c3ce802"),
    (13, 6, "json"):
        (166678, "76fffa9de08cf064f0cc9c48b3395083b181dd0565f8b5f48c768ed245cef10e"),
    (13, 6, "csv"):
        (39061, "ba572c646028d8e6fed7bfa5e4e49a62e11c2cbc2b2440ed706bcc6eddcbf009"),
}


@pytest.mark.parametrize("a,b,fmt", sorted(CORES_GOLDEN))
def test_cores_output_is_pinned(capsys, a, b, fmt):
    code, out, _ = run(capsys, "cores", "--a", str(a), "--b", str(b),
                       "--format", fmt)
    data = out.encode()
    assert code == 0
    assert (len(data), hashlib.sha256(data).hexdigest()) == CORES_GOLDEN[(a, b, fmt)]


# a = 1 leaves no gaps: the listing is the empty core alone, the one class of
# size 0 (bytes recorded from the listing before it was filed by size)
A_ONE_LISTING = {
    "plain": "(1, 5)-cores: 1\ntotal size: 0\naverage size: 0\n"
             "matches closed form: yes\n  []\n",
    "json": '{\n  "a": 1,\n  "b": 5,\n  "count": 1,\n  "total_size": 0,\n'
            '  "average": "0",\n  "matches": true,\n  "cores": [\n    []\n'
            '  ]\n}\n',
    "csv": "parts,size\n,0\n",
}


@pytest.mark.parametrize("fmt", FORMATS)
def test_cores_of_a_one_list_the_empty_core(capsys, fmt):
    assert run(capsys, "cores", "--a", "1", "--b", "5", "--format", fmt) \
        == (0, A_ONE_LISTING[fmt], "")


# SHA-256 and length of the `series-verify` stdout, recorded while the count
# series was still the fixed point of x*F**(m+1) - F + 1 = 0, before it was
# read off the Fuss-Catalan numbers.  m = 1 has no truncations, m = 2 adds
# the slope-two entries, and m = 6 runs the step chains; order 40 is the
# largest the guard admits.
SERIES_VERIFY_GOLDEN = {
    (1, 24, "plain"):
        (591, "edcfc102a3ab6dcdf363cec79a50ee74c453979ebd75b9207795a83554a5fb58"),
    (1, 24, "json"):
        (1674, "561e445ce1d4a5ee1f69a2044525d09b291d4a0db31c3e3215472ef4530fe67f"),
    (1, 24, "csv"):
        (453, "be2d3bbb9e871eeebd51acbac279accce43b13eee106c9d209bbe5150b364918"),
    (2, 24, "plain"):
        (1752, "9d3a28b365975ecdacaf74ddfed73e29c7ec274e3e6de7df11915280bde21f3b"),
    (2, 24, "json"):
        (4905, "49f64e069ff76ef3877d5a04141158433c3f592cd60aa8f24e28189f8183d26a"),
    (2, 24, "csv"):
        (1246, "ee6ad60661c8e597387809810ca920eee9bac1829ead81ca206cb26472a8e460"),
    (6, 24, "plain"):
        (2292, "a73d2580bd0701a1d4a201626a165d9567d1782f161ce463d6cac7f8cca41f17"),
    (6, 24, "json"):
        (6345, "c4aaf8fca72a14f9b65205f7ec8610437c80e5c6b7737a8eea53909addebae97"),
    (6, 24, "csv"):
        (1626, "50ca8c34f210f2845c06c23914ec05946e755908c63472431eda9268250c31c6"),
    (6, 40, "plain"):
        (2292, "7d78be631e71916d9c7b867915ed19de49217055366a316f9c97b2d108f7f64c"),
    (6, 40, "json"):
        (6345, "eecd1690eba03eec897770f1183ef2f17f18461f4c3ccb50548ae4056d3c6060"),
    (6, 40, "csv"):
        (1626, "5c60c0ad6008f6ee2068e3c13bcaeb268ed2f3144f0e731ed777e65ad1e25024"),
}


@pytest.mark.parametrize("m,order,fmt", sorted(SERIES_VERIFY_GOLDEN))
def test_series_verify_output_is_pinned(capsys, m, order, fmt):
    code, out, _ = run(capsys, "series-verify", "--m", str(m),
                       "--order", str(order), "--format", fmt)
    data = out.encode()
    assert code == 0
    assert ((len(data), hashlib.sha256(data).hexdigest())
            == SERIES_VERIFY_GOLDEN[(m, order, fmt)])


# Exit code, length and SHA-256 of every job the benchmark gates, as
# recorded in bench/baseline.json.
BENCH_BASELINE = json.loads(
    (Path(__file__).resolve().parents[1] / "bench" / "baseline.json").read_text())


@pytest.mark.parametrize("job", list(BENCH_BASELINE))
def test_gated_stdout_matches_bench_baseline(capsys, monkeypatch, job):
    monkeypatch.setenv("COLUMNS", "80")   # argparse wraps --help to it
    try:
        code = main(job.split())
    except SystemExit as exc:   # --help
        code = exc.code
    data = capsys.readouterr().out.encode()
    want = BENCH_BASELINE[job]
    assert (code, len(data), hashlib.sha256(data).hexdigest()) \
        == (want["exit"], want["bytes"], want["sha256"])


@pytest.mark.parametrize("command", ["cores", "poset"])
def test_guard_is_checked_before_any_poset(capsys, monkeypatch, command):
    limit = {"cores": cli.MAX_LISTED_GAPS, "poset": cli.MAX_POSET_SIZE}[command]

    def no_poset(*args):
        raise AssertionError(f"{command} built a poset before its guards")
    # any build fails, even one that a warm cache would serve
    monkeypatch.setattr("simcores.posets.gap_poset", no_poset)
    if command == "cores":   # cores builds no poset, so no work may start
        def no_work(*args):
            raise AssertionError("cores worked before its guards")
        for target in ("simcores.stats.core_count",
                       "simcores.stats.average_size_check",
                       "simcores.betaset.cores_by_size"):
            monkeypatch.setattr(target, no_work)
    code, out, err = run(capsys, command, "--a", "700", "--b", "701")
    assert code == 2 and out == ""
    assert err == ("error: the size of the gap poset of (700, 701) is 244650, "
                   f"above the guard of {limit}; pass --unsafe-limits to "
                   "override\n")
    assert len(err) < 200
    code, out, err = run(capsys, command, "--a", "40", "--b", "60")
    assert code == 2 and out == "" and "gcd(40, 60)" in err and "guard" not in err
    code, out, err = run(capsys, command, "--a", "0", "--b", "5")
    assert code == 2 and out == "" and "positive" in err


def test_stats_csv(capsys):
    code, out, _ = run(capsys, "stats", "--m", "2", "--max-n", "2",
                       "--format", "csv")
    lines = out.splitlines()
    assert code == 0
    assert lines[0] == "m,j,n,ideal_count,member_sum,layer_sum,core_size_sum"
    assert "2,0,2,3,3,1,4" in lines


@pytest.mark.parametrize("m,n_max", [(1, 0), (2, 4), (3, 2), (6, 5)])
def test_stats_json_rows_are_the_records(capsys, m, n_max):
    code, out, _ = run(capsys, "stats", "--m", str(m), "--max-n", str(n_max),
                       "--format", "json")
    assert code == 0
    assert json.loads(out) == [rec._asdict()
                               for rec in stats.compute_stats(m, n_max)]


def test_recursions_exit_zero(capsys):
    code, out, _ = run(capsys, "recursions", "--m", "2", "--max-n", "3",
                       "--format", "json")
    rows = json.loads(out)
    assert code == 0
    assert all(r["pass"] for r in rows)


@pytest.mark.parametrize("argv", [("recursions", "--m", "6", "--max-n", "4"),
                                  ("poset", "--a", "5", "--b", "7")])
def test_json_is_written_chunk_by_chunk(monkeypatch, argv):
    # a JSON report is never held whole: each write is one encoder chunk
    writes = []

    class Recorder(io.StringIO):
        def write(self, text):
            writes.append(text)
            return super().write(text)

    out = Recorder()
    monkeypatch.setattr(sys, "stdout", out)
    assert main([*argv, "--format", "json"]) == 0
    value = json.loads(out.getvalue())
    assert out.getvalue() == json.dumps(value, indent=2) + "\n"
    assert len(writes) > len(value) and max(map(len, writes)) < 40


def test_series_verify(capsys):
    code, out, _ = run(capsys, "series-verify", "--m", "2", "--order", "12",
                       "--format", "json")
    rows = json.loads(out)
    assert code == 0
    assert {"identity_name", "m", "effective_order", "residual_max_abs",
            "pass"} == set(rows[0])
    assert all(r["residual_max_abs"] == "0" for r in rows)


def test_series_verify_order_guard(capsys):
    code, _, err = run(capsys, "series-verify", "--m", "2", "--order", "60")
    assert code == 2
    assert "guard" in err
    code, _, err = run(capsys, "series-verify", "--m", "41", "--order", "4")
    assert code == 2
    assert "--m is 41, above the guard of 40" in err
    # below the minimum ledger order nothing would be verified
    code, out, err = run(capsys, "series-verify", "--m", "2", "--order", "3")
    assert code == 2
    assert out == "" and "order >= 4" in err


def test_cross_check_unsafe_limits(capsys):
    # the grid m = 2, n <= 85 holds 413,015 poset elements, past the guard
    code, out, err = run(capsys, "cross-check", "--m", "2", "--max-n", "85",
                         "--format", "json")
    assert code == 2 and out == "" and "is 413015, above the guard" in err
    code, out, _ = run(capsys, "cross-check", "--m", "2", "--max-n", "85",
                       "--unsafe-limits", "--format", "json")
    rows = json.loads(out)
    assert code == 0
    assert len(rows) == 2 * 86 * 4 and all(r["pass"] for r in rows)


@pytest.mark.parametrize("argv", [
    ("stats", "--m", "0", "--max-n", "2"),
    ("recursions", "--m", "1", "--max-n", "-1"),
    ("cross-check", "--m", "-1", "--max-n", "3"),
])
def test_empty_grid_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    out, err = capsys.readouterr()
    assert exc.value.code == 2
    assert out == "" and "error:" in err


@pytest.mark.parametrize("argv", [
    ("series-verify", "--m", "40", "--order", "40"),
    # the largest n the m = 40 grid guard admits: 306,900 poset elements,
    # where n = 11 has 403,480
    ("cross-check", "--m", "40", "--max-n", "10"),
    ("recursions", "--m", "40", "--max-n", "10"),
    ("stats", "--m", "40", "--max-n", "10"),
])
def test_largest_guarded_slope_passes(capsys, argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    assert code == 0 and err == ""
    rows = json.loads(out)
    if argv[0] == "stats":   # totals, with no check to pass
        assert len(rows) == 40 * 11
    else:
        assert rows and all(r["pass"] for r in rows)


def test_cross_check(capsys):
    code, out, _ = run(capsys, "cross-check", "--m", "2", "--max-n", "3",
                       "--format", "json")
    rows = json.loads(out)
    assert code == 0
    assert {(r["j"], r["n"], r["statistic"]) for r in rows if r["n"] == 3}
    assert all(r["series_value"] == r["enumerated_value"] for r in rows)


def test_report_exit_one_on_failure(capsys):
    class Args:
        format = "plain"

    records = [("demo", True), ("demo2", False)]
    code = _report(records, Args(), ("name", "pass"), "{name}")
    out, _ = capsys.readouterr()
    assert code == 1
    assert out == "ok   demo\nFAIL demo2\n"


def test_report_csv_header_without_records(capsys):
    # the header comes from the column names, not from a first row
    class Args:
        format = "csv"

    assert _report([], Args(), ("name", "pass"), "{name}") == 0
    assert capsys.readouterr().out == "name,pass\n"


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["cores", "--a", "3"])
    assert exc.value.code == 2


# Each subcommand's --help at COLUMNS=80, recorded while the parser was
# still written out call by call, before it was built from `cli.COMMANDS`.
SUBCOMMAND_HELP = {
    "cores": (
        "usage: simcores cores [-h] --a A --b B [--format {plain,json,csv}]\n"
        "                      [--unsafe-limits]\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --a A\n"
        "  --b B\n"
        "  --format {plain,json,csv}\n"
        "  --unsafe-limits       lift this command's guards\n"),
    "poset": (
        "usage: simcores poset [-h] --a A --b B [--format {dot,json,plain}]\n"
        "                      [--unsafe-limits]\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --a A\n"
        "  --b B\n"
        "  --format {dot,json,plain}\n"
        "  --unsafe-limits       lift this command's guards\n"),
    "stats": (
        "usage: simcores stats [-h] --m M --max-n MAX_N [--format {plain,json,csv}]\n"
        "                      [--unsafe-limits]\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --m M\n"
        "  --max-n MAX_N\n"
        "  --format {plain,json,csv}\n"
        "  --unsafe-limits       lift this command's guards\n"),
    "recursions": (
        "usage: simcores recursions [-h] --m M --max-n MAX_N\n"
        "                           [--format {plain,json,csv}] [--unsafe-limits]\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --m M\n"
        "  --max-n MAX_N\n"
        "  --format {plain,json,csv}\n"
        "  --unsafe-limits       lift this command's guards\n"),
    "series-verify": (
        "usage: simcores series-verify [-h] --m M [--order ORDER]\n"
        "                              [--format {plain,json,csv}] [--unsafe-limits]\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --m M\n"
        "  --order ORDER\n"
        "  --format {plain,json,csv}\n"
        "  --unsafe-limits       lift this command's guards\n"),
    "cross-check": (
        "usage: simcores cross-check [-h] --m M --max-n MAX_N\n"
        "                            [--format {plain,json,csv}] [--unsafe-limits]\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --m M\n"
        "  --max-n MAX_N\n"
        "  --format {plain,json,csv}\n"
        "  --unsafe-limits       lift this command's guards\n"),
}


@pytest.mark.parametrize("command", list(SUBCOMMAND_HELP))
def test_subcommand_help_is_pinned(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")   # argparse wraps --help to it
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr() == (SUBCOMMAND_HELP[command], "")


def test_usage_error_bytes_are_pinned(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(["stats", "--m", "0", "--max-n", "3"])
    assert exc.value.code == 2
    assert capsys.readouterr() == (
        "", "usage: simcores stats [-h] --m M --max-n MAX_N [--format {plain,json,csv}]\n"
            "                      [--unsafe-limits]\n"
            "simcores stats: error: argument --m: must be >= 1, got 0\n")


# Words an argv is drawn from: every flag, spellings only argparse reads
# (`--flag=value`, abbreviations, help, "--"), and values argparse converts,
# refuses or takes for a flag.
FLAG_WORDS = ("--a", "--b", "--m", "--max-n", "--order", "--format",
              "--unsafe-limits", "--m=2", "--format=json", "--max", "--form",
              "--unsafe", "-h", "--help", "--")
VALUE_WORDS = ("3", "-3", "0", "x", "", " 4", "1_0", "plain", "json", "csv",
               "dot", "xml")


@st.composite
def cli_argv(draw):
    """A subcommand (or a word that is none), most of its own flags with a
    value each, half the time one of that flag's plausible values, bare
    --unsafe-limits and stray words, in drawn order."""
    command = draw(st.sampled_from([*cli.COMMANDS, "core", "--help"]))
    _, _, flags, formats = cli.COMMANDS.get(command, (None, None, (), FORMATS))
    plausible = [(cli._option(dest), ("3", " 4", "1_0", "0"))
                 for dest, _, _ in flags]
    words = [[option, draw(st.sampled_from(values)
                           | st.sampled_from(VALUE_WORDS))]
             for option, values in (*plausible, ("--format", formats))
             if draw(st.integers(0, 7))]
    words += [["--unsafe-limits"]] * draw(st.integers(0, 2))
    words += draw(st.lists(st.sampled_from(FLAG_WORDS + VALUE_WORDS)
                           .map(lambda word: [word]), max_size=1))
    return [command, *(w for group in draw(st.permutations(words)) for w in group)]


# about one drawn argv in ten is in the plain form, so draw more than the
# suite's 60
@settings(max_examples=400)
@given(cli_argv())
def test_plain_reader_agrees_with_argparse(argv):
    args = _plain_args(argv)
    if args is not None:
        assert vars(args) == vars(build_parser().parse_args(argv))


@pytest.mark.parametrize("argv", [
    "", "--help", "cores --help", "cores --a 3", "stats --m 2 --max 4",
    "cores --a=3 --b=7", "cores --a 3 --b 7 --a 3", "cores --a -3 --b 7",
    "stats --m 0 --max-n 3", "poset --a 3 --b 7 --format csv"])
def test_plain_reader_leaves_other_argv_to_argparse(argv):
    assert _plain_args(argv.split()) is None


@pytest.mark.parametrize("job", [job for job in BENCH_BASELINE if job != "--help"])
def test_gated_jobs_take_the_plain_reader(job):
    assert _plain_args(job.split()) is not None


def test_byte_determinism_of_reports(capsys):
    outputs = set()
    for _ in range(2):
        _, out, _ = run(capsys, "cross-check", "--m", "1", "--max-n", "3",
                        "--format", "csv")
        outputs.add(out)
    assert len(outputs) == 1


def test_cores_long_chain_unsafe_limits(capsys, monkeypatch):
    # a chain of 1001 elements, deeper than Python's recursion limit, under
    # guards lowered below its 1,001 gaps and 1,003,002 listed parts
    argv = ("cores", "--a", "2", "--b", "2003")
    monkeypatch.setattr(cli, "MAX_LISTED_PARTS", 1_003_001)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "part count of the (2, 2003)-core listing is 1003002" in err
    monkeypatch.setattr(cli, "MAX_LISTED_GAPS", 1_000)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "gap poset of (2, 2003) is 1001, above the guard of 1000" in err
    code, out, _ = run(capsys, *argv, "--unsafe-limits")
    assert code == 0
    assert out.startswith("(2, 2003)-cores: 1002\n")


@pytest.mark.parametrize("fmt", FORMATS)
def test_cores_larger_generator_first(capsys, fmt):
    # inside both guards, and the same cores as (2, 2003); the 2003-abacus
    # would have 2,002 runners, more than Python's recursion limit
    code, out, err = run(capsys, "cores", "--a", "2003", "--b", "2",
                         "--format", fmt)
    assert code == 0 and err == ""
    _, swapped, _ = run(capsys, "cores", "--a", "2", "--b", "2003",
                        "--format", fmt)
    lines, swapped_lines = out.splitlines(), swapped.splitlines()
    assert len(lines) > 1000
    header_lines = {"plain": 1, "json": 3, "csv": 0}[fmt]   # lines naming a, b
    assert lines[header_lines:] == swapped_lines[header_lines:]


def listed_cores(a, b):
    """Every (a, b)-core as a tuple of parts, in the order `cores` lists."""
    return [tuple(map(int, text.split()))
            for _, texts in betaset.cores_by_size(a, b) for text in texts]


def assert_failed_listing(out, a, b, cores, fmt):
    """`out` is the stdout of a `cores` run that failed after writing
    `cores`, a listing in canonical order: the head and their classes, with
    no tail, so failed JSON does not parse."""
    full = render_listing(a, b, cores, fmt)
    tail = "\n  ]\n}\n" if fmt == "json" else ""
    assert full.endswith(tail)
    assert out == full[:len(full) - len(tail)]
    if fmt == "json":
        with pytest.raises(json.JSONDecodeError):
            json.loads(out)


def test_cores_listing_disagreeing_with_transfer_exits_1(capsys, monkeypatch):
    # the listing and the lattice-path totals check each other; the count
    # and total are known only after the last class, so every class is
    # written as listed, less the dropped core, and the tail is not
    real = betaset.cores_by_size

    def one_dropped(a, b, sep):
        # the walk less the core (1, 1), of size 2, its text filed with the
        # separator `cores` asks for
        for size, texts in real(a, b, sep):
            yield size, [text for text in texts if text != sep.join(("1", "1"))]

    cores = [core for core in listed_cores(3, 7) if core != (1, 1)]
    monkeypatch.setattr(betaset, "cores_by_size", one_dropped)
    for fmt in FORMATS:
        code, out, err = run(capsys, "cores", "--a", "3", "--b", "7",
                             "--format", fmt)
        assert code == 1
        assert_failed_listing(out, 3, 7, cores, fmt)
        assert err == ("error: the listing has 11 cores of total size 64, "
                       "the transfer counts 12 of total size 66\n")


def test_cores_filed_under_a_wrong_size_exit_1(capsys, monkeypatch):
    # the walk keeps a kept-gap sum 1 too large from the second part on:
    # every text, the count and the total still match the transfer, so only
    # the walk's check of each core against its hook set can see it.  It
    # stops the walk in class 2: the classes below it are written, class 2
    # and the tail are not
    cores = [core for core in listed_cores(3, 7) if sum(core) < 2]
    monkeypatch.setattr(betaset, "cores_by_size", walk_with_hook_fault("count > 0"))
    for fmt in FORMATS:
        code, out, err = run(capsys, "cores", "--a", "3", "--b", "7",
                             "--format", fmt)
        assert code == 1
        assert_failed_listing(out, 3, 7, cores, fmt)
        assert err == "error: a core listed under size 2 has a hook set of size 3\n"


def render_listing(a, b, cores, fmt):
    """The `cores` stdout for `cores`, a listing in canonical order, each
    part formatted from a table of digits: the oracle of the text writer."""
    check = stats.average_size_check(a, b)
    average = cli._ratio(check.total, check.count)
    digits = list(map(str, range(a * b - a - b + 1))).__getitem__
    classes = [(size, list(cls)) for size, cls in groupby(cores, key=sum)]
    out = []
    write = out.append
    if fmt == "json":
        head = json.dumps({"a": a, "b": b, "count": check.count,
                           "total_size": check.total, "average": average,
                           "matches": check.matches}, indent=2)
        write(head[:-2] + ',\n  "cores": [\n    ')
        for i, (size, cls) in enumerate(classes):
            if i:
                write(",\n    ")
            if size:
                write("[\n      " + "\n    ],\n    [\n      ".join(
                    ",\n      ".join(map(digits, p)) for p in cls) + "\n    ]")
            else:
                write(",\n    ".join(["[]"] * len(cls)))
        write("\n  ]\n}\n")
    elif fmt == "csv":
        write("parts,size\n")
        for size, cls in classes:
            end = f",{size}\n"
            write(end.join(" ".join(map(digits, p)) for p in cls) + end)
    else:
        write(f"({a}, {b})-cores: {check.count}\n"
              f"total size: {check.total}\n"
              f"average size: {average}\n"
              f"matches closed form: {'yes' if check.matches else 'no'}\n")
        for _, cls in classes:
            write("  [" + "]\n  [".join(", ".join(map(digits, p)) for p in cls)
                  + "]\n")
    return "".join(out)


def test_cores_listing_matches_the_text_writer_oracle(capsys):
    # each format files its cores with its own separator, joins a class
    # once and fills in JSON's stand-in once: on every coprime pair with at
    # most 20 gaps, in both orders and with 1, each format's stdout is the
    # oracle's for the cores of an independent ideal enumeration
    pairs = [(a, b) for a in range(1, 42) for b in range(1, 42)
             if gcd(a, b) == 1 and (a - 1) * (b - 1) <= 40]
    assert len(pairs) == 167 and {(2, 41), (41, 1), (1, 41)} <= set(pairs)
    for a, b in pairs:
        cores = canonical_order([betaset.ideal_to_partition(m)
                                 for m in order_ideals(gap_poset(a, b))])
        for fmt in FORMATS:
            code, out, err = run(capsys, "cores", "--a", str(a), "--b", str(b),
                                 "--format", fmt)
            assert (code, err) == (0, ""), (a, b, fmt)
            assert out == render_listing(a, b, cores, fmt), (a, b, fmt)


def mixed_kind_classes(classes):
    """The classes of `cores_by_size` that list cores with a part above 255
    (past one byte) beside cores with none."""
    return [cls for cls in classes
            if {max(map(int, text.split()), default=0) > 255
                for text in cls[1]} == {True, False}]


def test_cores_listing_across_string_kinds(capsys):
    # (3, 301) has 300 gaps, so parts run up to 300: within one class, cores
    # with parts below 256 only and cores with a part above 255 are built
    # and written side by side
    classes = list(betaset.cores_by_size(3, 301))
    assert len(mixed_kind_classes(classes)) == 176
    cores = canonical_order([tuple(map(int, text.split()))
                             for _, texts in classes for text in texts])
    assert len(cores) == 15_251 and max(map(max, cores[1:])) == 300
    for fmt in FORMATS:
        code, out, err = run(capsys, "cores", "--a", "3", "--b", "301",
                             "--format", fmt)
        assert (code, err) == (0, "")
        assert out == render_listing(3, 301, cores, fmt), fmt
        if fmt == "json":
            assert json.loads(out)["cores"] == list(map(list, cores))


def test_cores_filed_under_a_wrong_size_past_latin1_exit_1(capsys, monkeypatch):
    # with 256 gaps or more parts run past one byte: the kept-gap sum is 1
    # too large for each core made with a part above 255, so the first core
    # wrong is in the first class with such a part, which mixes both kinds,
    # and only the walk's check of each core can see it.  Every class below
    # that one is written before the walk stops
    classes = list(betaset.cores_by_size(3, 301))
    first = next(size for size, texts in classes
                 if any(int(text.split()[0]) > 255 for text in texts if text))
    assert first == mixed_kind_classes(classes)[0][0] == 18_892
    cores = [tuple(map(int, text.split()))
             for size, texts in classes if size < first for text in texts]
    monkeypatch.setattr(betaset, "cores_by_size",
                        walk_with_hook_fault("gap - count > 255"))
    for fmt in FORMATS:
        code, out, err = run(capsys, "cores", "--a", "3", "--b", "301",
                             "--format", fmt)
        assert code == 1
        assert_failed_listing(out, 3, 301, cores, fmt)
        assert err == (f"error: a core listed under size {first} has a hook "
                       f"set of size {first + 1}\n")


def traced_peak(argv):
    """The tracemalloc peak, in bytes, of `main(argv)` writing to devnull;
    the job must pass."""
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        tracemalloc.start()
        try:
            assert main(argv) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    return peak


@pytest.mark.parametrize("fmt", FORMATS)
def test_cores_listing_is_held_compactly(fmt):
    # the walk holds the cores of the classes it has not yet yielded, each
    # with its own string, its parts joined by ", " in plain, " " in CSV and
    # a 1-character stand-in in JSON, and the class being written is one
    # string more: the traced peak, output aside, stays under 80 bytes per
    # core (holding every core's own string to the end would take about 100)
    count = stats.core_count(9, 13)
    assert count == 22_610
    peak = traced_peak(["cores", "--a", "9", "--b", "13", "--format", fmt])
    assert peak < 80 * count, peak / count


def test_cores_json_holds_its_texts_as_compactly_as_csv():
    # JSON's part separator is 8 characters; its walk files the cores with a
    # 1-character stand-in, filled in once a class, so it holds what CSV's
    # walk holds, one character a part.  At (9, 13) the traced peak of JSON
    # reads 1.08 times that of CSV; filed with the 8 characters it reads 1.6
    assert stats.core_count(9, 13) == 22_610
    peaks = {fmt: traced_peak(["cores", "--a", "9", "--b", "13",
                               "--format", fmt]) for fmt in ("json", "csv")}
    assert peaks["json"] < 1.3 * peaks["csv"], peaks


@pytest.mark.parametrize("fmt", FORMATS)
def test_cores_memory_does_not_grow_with_the_listing(fmt):
    # (3, 301) lists 15,251 cores in 6-20 MB of output; written class by
    # class, its traced peak is a fraction of one megabyte, while holding
    # the listing until its checks pass takes about 7 MB
    peak = traced_peak(["cores", "--a", "3", "--b", "301", "--format", fmt])
    assert peak < 1_000_000, peak


def test_cores_mismatch_exits_1(capsys, monkeypatch):
    # a mismatch fails every pair, inside the slope family (3, 7) or not
    real = stats.average_size_check
    monkeypatch.setattr(stats, "average_size_check",
                        lambda a, b: real(a, b)._replace(matches=False))
    for a, b in [(3, 7), (3, 5)]:
        code, out, _ = run(capsys, "cores", "--a", str(a), "--b", str(b))
        assert code == 1 and "matches closed form: no" in out


def source_env():
    """The environment with this checkout's sources first on PYTHONPATH."""
    src = str(Path(simcores.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def max_rss_kib(job):
    """The exit code and max-RSS in KiB of `python -m simcores.cli *job`,
    its stdout sent to devnull.  A child's max-RSS starts at its spawner's
    RSS, so a bare interpreter spawns it, not this process."""
    spawner = ("import os, sys\n"
               "out = os.open(os.devnull, os.O_WRONLY)\n"
               "pid = os.posix_spawn(sys.executable, [sys.executable, *sys.argv[1:]], "
               "os.environ, file_actions=[(os.POSIX_SPAWN_DUP2, out, 1)])\n"
               "_, status, usage = os.wait4(pid, 0)\n"
               "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)")
    proc = subprocess.run([sys.executable, "-S", "-c", spawner, "-m", "simcores.cli", *job],
                          capture_output=True, text=True, env=source_env(), check=True)
    return tuple(map(int, proc.stdout.split()))


@pytest.mark.parametrize("job", [
    ("cores", "--a", "2", "--b", "4999", "--format", "json"),
    ("cores", "--a", "1000000", "--b", "1", "--format", "json"),
    ("poset", "--a", "1000000", "--b", "1"),
], ids=["cores-2-4999", "cores-1000000-1", "poset-1000000-1"])
def test_cores_worst_admitted_job_stays_under_64_mb(job):
    # (2, 4999) is the largest listing both guards admit: 35 MB of JSON,
    # written class by class, so it takes less than 6 MB more than the
    # one-core job (1, 1); holding the listing would take about 12 MB more.
    # (a, 1) has no gaps at any a, so its work must not grow with a.
    code, max_rss = max_rss_kib(job)
    assert code == 0
    assert max_rss < 64 * 1024
    floor_code, floor = max_rss_kib(("cores", "--a", "1", "--b", "1"))
    assert floor_code == 0
    assert max_rss - floor < 6 * 1024, (max_rss, floor)


@pytest.mark.parametrize("fmt", FORMATS)
def test_closed_stdout_exits_2_without_traceback(fmt):
    # 150-630 KB and 6-20 MB of output, far more than a pipe buffers; the
    # listing is written in the walk's loop, so the closed pipe is found
    # there, mid-walk
    for a, b, count in [(9, 10, 4862), (3, 301, 15251)]:
        proc = subprocess.Popen(
            [sys.executable, "-m", "simcores.cli", "cores", "--a", str(a),
             "--b", str(b), "--format", fmt],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=source_env())
        assert proc.stdout.readline() == {
            "plain": f"({a}, {b})-cores: {count}\n".encode(), "json": b"{\n",
            "csv": b"parts,size\n"}[fmt]
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 2
        assert b"Traceback" not in err


def test_closed_stdout_leaks_no_descriptor(monkeypatch):
    # each in-process run into a pipe whose reader has closed exits 2 and
    # leaves the process's open descriptors as they were
    fds = len(os.listdir("/proc/self/fd"))
    for _ in range(5):
        read, write = os.pipe()
        os.close(read)
        with os.fdopen(write, "w") as pipe:
            monkeypatch.setattr(sys, "stdout", pipe)
            assert main(["cores", "--a", "9", "--b", "10", "--format", "csv"]) == 2
        assert len(os.listdir("/proc/self/fd")) == fds


def test_runtime_imports_only_the_standard_library():
    # every submodule, since importing the package loads none of them
    names = sorted(m.name for m in pkgutil.iter_modules(simcores.__path__))
    probe = ("import sys; before = set(sys.modules); import simcores; "
             f"[__import__('simcores.' + m) for m in {names!r}]; "
             "print(' '.join(sorted(set(sys.modules) - before)))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, env=source_env(), check=True).stdout.split()
    assert {"simcores", *(f"simcores.{m}" for m in names)} <= set(out)
    assert [m for m in out if m.split(".")[0] != "simcores"
            and m.split(".")[0] not in sys.stdlib_module_names] == []


def test_lazy_exports():
    for name in simcores.__all__:
        value = getattr(simcores, name)
        assert value is getattr(sys.modules[value.__module__], name), name
    namespace = {}
    exec("from simcores import *", namespace)
    assert set(simcores.__all__) <= set(namespace)
    assert set(simcores.__all__) <= set(dir(simcores))
    with pytest.raises(AttributeError, match="no_such_name"):
        simcores.no_such_name


# The simcores modules a cold `python -m simcores.cli` job loads: each
# subcommand imports only what it runs, and `--help` nothing.
FOOTPRINTS = [
    (("--help",), ()),
    (("poset", "--a", "3", "--b", "7"), ("posets",)),
    (("stats", "--m", "2", "--max-n", "3"), ("posets", "stats")),
    (("recursions", "--m", "2", "--max-n", "3"), ("posets", "series", "stats")),
    (("series-verify", "--m", "2"), ("posets", "series", "stats")),
    (("cross-check", "--m", "2", "--max-n", "3"), ("posets", "series", "stats")),
    (("cores", "--a", "3", "--b", "7"), ("betaset", "posets", "stats")),
    (("cores", "--a", "3", "--b", "7", "--format", "json"),
     ("betaset", "posets", "stats")),
]


@pytest.mark.parametrize("argv,modules", FOOTPRINTS,
                         ids=[argv[0] + "-json" * ("json" in argv)
                              for argv, _ in FOOTPRINTS])
def test_subcommand_import_footprint(argv, modules):
    # runs the module as `python -m` does, then lists what the job added
    probe = ("import runpy, sys; before = set(sys.modules)\n"
             "try: runpy.run_module('simcores.cli', run_name='__main__', "
             "alter_sys=True)\n"
             "except SystemExit: pass\n"
             "print(' '.join(sorted(set(sys.modules) - before)))")
    proc = subprocess.run([sys.executable, "-c", probe, *argv], capture_output=True,
                          text=True, env=source_env(), check=True)
    loaded = set(proc.stdout.splitlines()[-1].split())
    assert {m for m in loaded if m.startswith("simcores")} \
        == {"simcores", *(f"simcores.{m}" for m in modules)}
    assert "dataclasses" not in loaded
    assert not loaded & {"fractions", "decimal", "numbers"}
    # `cores` writes its JSON by hand
    assert "json" not in loaded
    # a job reads its argv without argparse; only --help builds the parser
    assert ("argparse" in loaded) == (argv == ("--help",))


def exit_code(argv):
    """`main`'s exit code; argparse's usage exit is the only exception
    allowed out of it."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            return main(argv)
        except SystemExit as exc:
            assert exc.code == 2
            return 2


@given(st.integers(-1, 7), st.integers(-1, 30), st.booleans(),
       st.sampled_from(FORMATS))
def test_series_verify_exit_contract(m, order, unsafe, fmt):
    argv = ["series-verify", "--m", str(m), "--order", str(order),
            "--format", fmt] + ["--unsafe-limits"] * unsafe
    assert exit_code(argv) in (0, 1, 2)


@given(st.integers(-2, 9), st.integers(-2, 9), st.sampled_from(FORMATS))
def test_cores_exit_contract(a, b, fmt):
    argv = ["cores", "--a", str(a), "--b", str(b), "--format", fmt]
    assert exit_code(argv) in (0, 1, 2)


@given(st.sampled_from(("stats", "recursions", "cross-check")),
       st.integers(-1, 7), st.integers(-1, 12), st.booleans(),
       st.sampled_from(FORMATS))
def test_grid_exit_contract(command, m, max_n, unsafe, fmt):
    argv = [command, "--m", str(m), "--max-n", str(max_n),
            "--format", fmt] + ["--unsafe-limits"] * unsafe
    # every grid drawn is inside the guards: at most 15,652 poset elements
    assert exit_code(argv) == (0 if m >= 1 and max_n >= 0 else 2)


def test_arithmetic_error_exits_1_without_traceback(capsys, monkeypatch):
    def broken(m, order):
        raise IntegralityViolationError("coefficient 3 of F is 1/2")

    monkeypatch.setattr(importlib.import_module("simcores.series"),
                        "stat_series", broken)
    for argv in (["series-verify", "--m", "2"],
                 ["cross-check", "--m", "2", "--max-n", "3"]):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == "" and "error: coefficient 3 of F is 1/2" in err
        assert "Traceback" not in err
