import contextlib
import dataclasses
import hashlib
import importlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import simcores
from simcores import cli
from simcores.cli import _report, build_parser, main
from simcores.posets import gap_poset
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
# recorded in bench/baseline.json; the `cores` listings are left to the
# benchmark itself, being the slow ones.
BENCH_BASELINE = json.loads(
    (Path(__file__).resolve().parents[1] / "bench" / "baseline.json").read_text())


@pytest.mark.parametrize("job", [k for k in BENCH_BASELINE
                                 if not k.startswith("cores ")])
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
    if command == "cores":   # cores builds no poset, so no work may start
        def no_work(*args):
            raise AssertionError("cores worked before its guards")
        for name in ("core_count", "average_size_check", "core_partitions"):
            monkeypatch.setattr(cli, name, no_work)
    gap_poset.cache_clear()   # so an earlier case cannot have built it
    misses = gap_poset.cache_info().misses
    code, out, err = run(capsys, command, "--a", "700", "--b", "701")
    assert code == 2 and out == ""
    assert err == ("error: the size of the gap poset of (700, 701) is 244650, "
                   f"above the guard of {limit}; pass --unsafe-limits to "
                   "override\n")
    assert len(err) < 200
    assert gap_poset.cache_info().misses == misses
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


def test_recursions_exit_zero(capsys):
    code, out, _ = run(capsys, "recursions", "--m", "2", "--max-n", "3",
                       "--format", "json")
    rows = json.loads(out)
    assert code == 0
    assert all(r["pass"] for r in rows)


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
])
def test_largest_guarded_slope_passes(capsys, argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    assert code == 0 and err == ""
    assert all(r["pass"] for r in json.loads(out))


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

    rows = [{"name": "demo", "pass": True}, {"name": "demo2", "pass": False}]
    code = _report(rows, Args(), "{name}")
    out, _ = capsys.readouterr()
    assert code == 1
    assert out == "ok   demo\nFAIL demo2\n"


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["cores", "--a", "3"])
    assert exc.value.code == 2


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


def test_cores_listing_disagreeing_with_transfer_exits_1(capsys, monkeypatch):
    # the listing and the lattice-path totals check each other before output
    real = cli.core_partitions
    monkeypatch.setattr(cli, "core_partitions", lambda a, b: real(a, b)[1:])
    for fmt in FORMATS:
        code, out, err = run(capsys, "cores", "--a", "3", "--b", "7",
                             "--format", fmt)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "11 cores" in err and "12" in err
        assert "Traceback" not in err


def test_cores_mismatch_exits_1(capsys, monkeypatch):
    # a mismatch fails every pair, inside the slope family (3, 7) or not
    real = cli.average_size_check
    monkeypatch.setattr(cli, "average_size_check",
                        lambda a, b: dataclasses.replace(real(a, b),
                                                         matches=False))
    for a, b in [(3, 7), (3, 5)]:
        code, out, _ = run(capsys, "cores", "--a", str(a), "--b", str(b))
        assert code == 1 and "matches closed form: no" in out


@pytest.mark.parametrize("fmt", FORMATS)
def test_closed_stdout_exits_2_without_traceback(fmt):
    src = str(Path(simcores.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    # 150-630 KB of output, far more than a pipe buffers
    proc = subprocess.Popen(
        [sys.executable, "-m", "simcores.cli", "cores", "--a", "9", "--b", "10",
         "--format", fmt],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline() == {"plain": b"(9, 10)-cores: 4862\n",
                                      "json": b"{\n", "csv": b"parts,size\n"}[fmt]
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 2
    assert b"Traceback" not in err


def test_runtime_imports_only_the_standard_library():
    src = str(Path(simcores.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    probe = ("import sys; before = set(sys.modules); import simcores, simcores.cli; "
             "print(' '.join(sorted({m.split('.')[0] for m in set(sys.modules) - before})))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, env=env, check=True).stdout.split()
    assert "simcores" in out
    assert [m for m in out if m != "simcores"
            and m not in sys.stdlib_module_names] == []


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

    # `simcores.series` names the package's `series` function, not the module
    monkeypatch.setattr(importlib.import_module("simcores.series"),
                        "stat_series", broken)
    for argv in (["series-verify", "--m", "2"],
                 ["cross-check", "--m", "2", "--max-n", "3"]):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == "" and "error: coefficient 3 of F is 1/2" in err
        assert "Traceback" not in err
