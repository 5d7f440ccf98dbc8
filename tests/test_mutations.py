"""Mutation sweep of the listing walk, `betaset.cores_by_size`.

Each `+` or `-` of the walk is flipped, and each int literal is raised by
1, one at a time.  Every such mutant must raise, run out of time, or change
the exit code or stdout of some `cores` job; the ones that cannot are
listed in EQUIVALENT with the reason.
"""

import ast
import contextlib
import io
import signal
from pathlib import Path

import pytest

from simcores import betaset, cli

JOBS = [("cores", "--a", str(a), "--b", str(b), "--format", fmt)
        for a, b in [(3, 7), (4, 9), (5, 7), (7, 4), (2, 9)]
        for fmt in ("plain", "json", "csv")]

# mutant -> why it prints the same listing as the walk
EQUIVALENT = {
    "len(gaps) + 1 -> len(gaps) + 2":
        "the digits table only grows; no part exceeds the gap count",
}

MUTANT_SECONDS = 5   # the unmutated jobs take a few hundredths of a second


def _walk():
    tree = ast.parse(Path(betaset.__file__).read_text())
    return next(node for node in tree.body if isinstance(node, ast.FunctionDef)
                and node.name == "cores_by_size")


def _sites(walk):
    """The walk's `+`/`-` operators and int literals, in a fixed order."""
    return [node for node in ast.walk(walk)
            if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub))
            or isinstance(node, ast.Constant) and type(node.value) is int]


def _compiled(walk):
    namespace = dict(vars(betaset))
    exec(compile(ast.Module([walk], []), betaset.__file__, "exec"), namespace)
    return namespace["cores_by_size"]


def _mutants():
    """(label, mutant) per site; a label is the changed expression before
    and after, numbered from its second occurrence on."""
    seen = {}
    for k in range(len(_sites(_walk()))):
        walk = _walk()
        site = _sites(walk)[k]
        shown = site
        if isinstance(site, ast.Constant):   # a literal is shown in context
            shown = next(node for node in ast.walk(walk)
                         if site in ast.iter_child_nodes(node))
        before = ast.unparse(shown)
        if isinstance(site, ast.BinOp):
            site.op = ast.Sub() if isinstance(site.op, ast.Add) else ast.Add()
        else:
            site.value += 1
        label = f"{before} -> {ast.unparse(shown)}"
        seen[label] = seen.get(label, 0) + 1
        if seen[label] > 1:
            label += f" ({seen[label]})"
        yield label, _compiled(walk)


def _run(job):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(job))
    return code, out.getvalue()


def _time_out(signum, frame):
    raise TimeoutError


def _survives(monkeypatch, walk, reference):
    """Whether every job exits and prints as it does with the walk, within
    MUTANT_SECONDS; a raise or a timeout kills."""
    monkeypatch.setattr(betaset, "cores_by_size", walk)
    previous = signal.signal(signal.SIGALRM, _time_out)
    signal.setitimer(signal.ITIMER_REAL, MUTANT_SECONDS)
    try:
        return all(_run(job) == want for job, want in reference.items())
    except Exception:
        return False
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="module")
def reference():
    return {job: _run(job) for job in JOBS}


def test_the_recompiled_walk_survives(monkeypatch, reference):
    # so a kill below is the mutation's, not the recompiling's
    assert all(code == 0 for code, _ in reference.values())
    assert _survives(monkeypatch, _compiled(_walk()), reference)


def test_every_mutant_of_the_walk_is_killed_or_listed(monkeypatch, reference):
    mutants = dict(_mutants())
    assert len(mutants) >= 30
    assert {label for label, walk in mutants.items()
            if _survives(monkeypatch, walk, reference)} == set(EQUIVALENT)
