"""Mutation sweeps of the listing walk, `betaset.cores_by_size`, of the
series kernel, the methods of `series.TruncatedSeries`, and of the ledger's
functions, from the lattice-path totals to the statistic series and the
two checks that hold the grid against them.

Each `+` or `-` is flipped, and each int literal is raised by 1, one at a
time.  Every such mutant must raise, run out of time, or change the outcome
of some job: the exit code and stdout of a CLI run, or the value or error
of a direct probe.  The mutants that cannot are listed in EQUIVALENT, by
function and mutation, with the reason.
"""

import ast
import contextlib
import io
import signal
from functools import partial
from pathlib import Path
from types import FunctionType

import pytest

from simcores import betaset, cli, series, stats


def _run(*job):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(job))
    return code, out.getvalue()


WALK_JOBS = [partial(_run, "cores", "--a", str(a), "--b", str(b), "--format", fmt)
             for a, b in [(3, 7), (4, 9), (5, 7), (7, 4), (2, 9)]
             for fmt in ("plain", "json", "csv")]

# (function, mutant) -> why every job gives the outcome it gives unmutated
EQUIVALENT = {
    ("cores_by_size", "len(gaps) + 1 -> len(gaps) + 2"):
        "the digits table only grows; no part exceeds the gap count",
    ("compute_stats", "maxsize=8 -> maxsize=9"):
        "a CLI job reads one grid; a larger cache differs only in memory",
    ("compute_stats", "n_max + 2 -> n_max + 3"):
        "the extra pass, index n_max + 2, is never read: the divisor "
        "a = n + 1 if j else n is at most n_max + 1",
}


def _listed(name):
    return {label for function, label in EQUIVALENT if function == name}


def _probe(compute):
    """The repr of a result, or the error it is refused with."""
    try:
        return repr(compute())
    except (ArithmeticError, ValueError) as exc:
        return type(exc).__name__, str(exc)


_f = series.series([2, -3, 5, 7, -1])
_g = series.series([1, 4, -2, 6, 3])

# The ledger divides only numerators of valuation >= 2 by series of constant
# term 1, and raises no power but 2 and 3, so the CLI jobs alone would leave
# kernel mutants alive.
KERNEL_PROBES = [partial(_probe, compute) for compute in (
    lambda: _f / _g,
    lambda: _f / -_g,
    lambda: 1 - _f,
    lambda: _f / 3,
    lambda: _f.shift(0),
    lambda: _f.shift(-1),
    lambda: series.series(_f[:1]).derivative(),
    lambda: series.series(_f[:2]).derivative(),
    lambda: _f ** 0,
    lambda: _f ** 1,
    lambda: _f ** 3,
)]

KERNEL_CLI_JOBS = [
    *(partial(_run, "series-verify", "--m", m, "--order", "12") for m in "123"),
    partial(_run, "cross-check", "--m", "3", "--max-n", "6"),
    partial(_run, "recursions", "--m", "3", "--max-n", "6"),
]


def _cold(job):
    """`job` run with the grid cache empty, and left empty: a grid cached
    unmutated would hide a mutant of `_path_totals`, and one cached by the
    mutant would outlive it."""
    stats.compute_stats.cache_clear()
    try:
        return job()
    finally:
        stats.compute_stats.cache_clear()


# where each swept ledger function is defined; `series` imports the `stats`
# ones it calls by name, and each mutant is patched into both modules
LEDGER = {"_path_totals": stats, "compute_stats": stats,
          "as_truncation_m": stats, "recursion_rhs": stats,
          "verify_stat_recursions": stats, "stat_series": series,
          "fuss_catalan_number": series, "cross_check": series}

# No CLI job reads the length of the totals of a pair with no runners, runs
# the empty grid or sees the bundle whole, so the probes do.
LEDGER_CLI_JOBS = [partial(_cold, partial(_run, *job)) for job in (
    *(("series-verify", "--m", m, "--order", "12") for m in "1236"),
    *((command, "--m", m, "--max-n", n)
      for command in ("cross-check", "recursions", "stats")
      for m, n in (("1", "8"), ("2", "6"), ("3", "5"))),
    *(("cores", "--a", str(a), "--b", str(b))
      for a, b in [(3, 7), (5, 8), (7, 4), (2, 9), (1, 5)]),
)]

LEDGER_PROBES = [partial(_cold, partial(_probe, compute)) for compute in (
    lambda: stats._path_totals(0, 1),
    lambda: stats.compute_stats(1, 0),
    lambda: series.stat_series(2, 6),
)]

MUTANT_SECONDS = 5   # the unmutated jobs take a few hundredths of a second


def _parsed(module, name):
    """The top-level function or class `name` of `module`, parsed afresh."""
    tree = ast.parse(Path(module.__file__).read_text())
    return next(node for node in tree.body
                if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and node.name == name)


def _sites(node):
    """The `+`/`-` operators and int literals under `node`, in a fixed order."""
    return [site for site in ast.walk(node)
            if isinstance(site, ast.BinOp) and isinstance(site.op, (ast.Add, ast.Sub))
            or isinstance(site, ast.Constant) and type(site.value) is int]


def _compiled(module, node):
    """`node` compiled in a copy of the namespace of `module`.  The name
    then points back at the module's own object: a compiled class lends its
    methods to the real class, whose instances they must make and accept."""
    namespace = dict(vars(module))
    exec(compile(ast.Module([node], []), module.__file__, "exec"), namespace)
    compiled = namespace[node.name]
    namespace[node.name] = vars(module)[node.name]
    return compiled


def _mutants(module, name):
    """(label, mutant) per site; a label is the changed expression before
    and after, behind the name of its method in a class, numbered from its
    second occurrence on."""
    seen = {}
    for k in range(len(_sites(_parsed(module, name)))):
        node = _parsed(module, name)
        site = _sites(node)[k]
        shown = site
        if isinstance(site, ast.Constant):   # a literal is shown in context
            shown = next(parent for parent in ast.walk(node)
                         if site in ast.iter_child_nodes(parent))
        before = ast.unparse(shown)
        if isinstance(site, ast.BinOp):
            site.op = ast.Sub() if isinstance(site.op, ast.Add) else ast.Add()
        else:
            site.value += 1
        label = f"{before} -> {ast.unparse(shown)}"
        if isinstance(node, ast.ClassDef):
            label = next(f"{method.name}: " for method in node.body
                         if site in ast.walk(method)) + label
        seen[label] = seen.get(label, 0) + 1
        if seen[label] > 1:
            label += f" ({seen[label]})"
        yield label, _compiled(module, node)


def _time_out(signum, frame):
    raise TimeoutError


def _survives(reference):
    """Whether every job gives the outcome it gives unmutated, within
    MUTANT_SECONDS; a raise or a timeout kills."""
    previous = signal.signal(signal.SIGALRM, _time_out)
    signal.setitimer(signal.ITIMER_REAL, MUTANT_SECONDS)
    try:
        return all(job() == want for job, want in reference.items())
    except Exception:
        return False
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _walk_survives(monkeypatch, reference, walk):
    monkeypatch.setattr(betaset, "cores_by_size", walk)
    return _survives(reference)


def _kernel_survives(monkeypatch, reference, cls):
    for name, member in vars(cls).items():
        if isinstance(member, (FunctionType, property)):
            monkeypatch.setattr(series.TruncatedSeries, name, member)
    return _survives(reference)


def _ledger_survives(monkeypatch, reference, name, function):
    with monkeypatch.context() as patch:
        for module in (stats, series):
            if name in vars(module):
                patch.setattr(module, name, function)
        return _survives(reference)


@pytest.fixture(scope="module")
def walk_reference():
    return {job: job() for job in WALK_JOBS}


@pytest.fixture(scope="module")
def kernel_reference():
    return {job: job() for job in KERNEL_CLI_JOBS + KERNEL_PROBES}


@pytest.fixture(scope="module")
def ledger_reference():
    return {job: job() for job in LEDGER_CLI_JOBS + LEDGER_PROBES}


def test_the_recompiled_walk_survives(monkeypatch, walk_reference):
    # so a kill below is the mutation's, not the recompiling's
    assert all(code == 0 for code, _ in walk_reference.values())
    walk = _compiled(betaset, _parsed(betaset, "cores_by_size"))
    assert _walk_survives(monkeypatch, walk_reference, walk)


def test_every_mutant_of_the_walk_is_killed_or_listed(monkeypatch, walk_reference):
    mutants = dict(_mutants(betaset, "cores_by_size"))
    assert len(mutants) >= 30
    assert {label for label, walk in mutants.items()
            if _walk_survives(monkeypatch, walk_reference, walk)} == _listed("cores_by_size")


def test_the_recompiled_kernel_survives(monkeypatch, kernel_reference):
    assert all(kernel_reference[job][0] == 0 for job in KERNEL_CLI_JOBS)
    kernel = _compiled(series, _parsed(series, "TruncatedSeries"))
    assert _kernel_survives(monkeypatch, kernel_reference, kernel)


# Methods that must each keep a swept site however short the kernel gets;
# a label starts with its method's name.
KERNEL_METHODS = {"__add__", "__sub__", "__mul__", "__truediv__", "__pow__",
                  "shift", "derivative"}


def test_every_mutant_of_the_kernel_is_killed(monkeypatch, kernel_reference):
    mutants = dict(_mutants(series, "TruncatedSeries"))
    assert {label.split(":")[0] for label in mutants} >= KERNEL_METHODS
    assert len(mutants) >= 24
    assert {label for label, cls in mutants.items()
            if _kernel_survives(monkeypatch, kernel_reference, cls)} == set()


def test_the_recompiled_ledger_survives(monkeypatch, ledger_reference):
    assert all(ledger_reference[job][0] == 0 for job in LEDGER_CLI_JOBS)
    for name, module in LEDGER.items():
        function = _compiled(module, _parsed(module, name))
        assert _ledger_survives(monkeypatch, ledger_reference, name, function), name


def test_every_mutant_of_the_ledger_is_killed_or_listed(monkeypatch, ledger_reference):
    swept, survivors = {}, {}
    for name, module in LEDGER.items():
        mutants = dict(_mutants(module, name))
        swept[name] = len(mutants)
        survivors[name] = {label for label, function in mutants.items()
                           if _ledger_survives(monkeypatch, ledger_reference,
                                               name, function)}
    assert sum(swept.values()) >= 100
    assert survivors == {name: _listed(name) for name in LEDGER}
