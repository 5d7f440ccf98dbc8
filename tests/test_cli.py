import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import simcores
from simcores.cli import _report, build_parser, main

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
    # below the minimum ledger order nothing would be verified
    code, out, err = run(capsys, "series-verify", "--m", "2", "--order", "3")
    assert code == 2
    assert out == "" and "order >= 4" in err


def test_cross_check_unsafe_limits(capsys):
    # FamilyId(2, 1, 8) has 64 elements, past the default guard of 60
    code, out, _ = run(capsys, "cross-check", "--m", "2", "--max-n", "8",
                       "--format", "json")
    assert code == 2
    code, out, _ = run(capsys, "cross-check", "--m", "2", "--max-n", "8",
                       "--unsafe-limits", "--format", "json")
    rows = json.loads(out)
    assert code == 0
    assert len(rows) == 2 * 9 * 4 and all(r["pass"] for r in rows)


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
    code = _report(rows, Args(), lambda r: r["name"])
    capsys.readouterr()
    assert code == 1


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


def test_cores_long_chain_unsafe_limits(capsys):
    # a chain of 1001 elements, deeper than Python's recursion limit
    code, out, _ = run(capsys, "cores", "--a", "2", "--b", "2003",
                       "--unsafe-limits")
    assert code == 0
    assert out.startswith("(2, 2003)-cores: 1002\n")


def test_closed_stdout_exits_2_without_traceback():
    src = str(Path(simcores.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    # about 400 KB of output, far more than a pipe buffers
    proc = subprocess.Popen(
        [sys.executable, "-m", "simcores.cli", "cores", "--a", "9", "--b", "10"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline() == b"(9, 10)-cores: 4862\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 2
    assert b"Traceback" not in err


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
