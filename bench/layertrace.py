"""Per-layer tracing of simcores CLI jobs, from outside the program.

The job list runs in this process through `simcores.cli.main(argv)` with
stdout captured.  Before every job the `lru_cache`s a fresh process starts
without are cleared, so each job starts as cold as a new process.  Each job
runs three times:

1. counted, untimed, in a fresh interpreter, which also reports how far
   the job raised its max-RSS above that of the interpreter with simcores
   imported (tracemalloc would measure the Python heap instead, but it
   slows the allocation-heavy cores listing about tenfold);
2. untraced, for the tracing overhead (traced minus untraced time);
3. traced: every layer function below is rebound, in every module that
   imports it, to a wrapper that records a span (name, start, end, parent)
   and counts calls, cache hits and misses.  `TruncatedSeries` products are
   counted with their multiply-adds and the largest coefficient bit length.

A layer's self time is its spans' time minus their child spans' time.  The
counts of runs 1 and 3 must repeat exactly, or the run is not correct.
Spans stay in memory and are written to a gzipped JSON-lines file at the end.
"""

import contextlib
import gc
import gzip
import hashlib
import importlib
import io
import json
import os
import resource
import subprocess
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

from workloads import JOB_TIMEOUT_S

MODULES = ("simcores", "simcores.partitions", "simcores.posets",
           "simcores.betaset", "simcores.stats", "simcores.series",
           "simcores.cli")

# (defining module, function, span name).  `partitions` is absent: no CLI
# path calls it.
LAYERS = (
    ("simcores.posets", "gap_poset", "posets.gap_poset"),
    ("simcores.posets", "family_poset", "posets.family_poset"),
    ("simcores.posets", "induced_subposet", "posets.induced_subposet"),
    ("simcores.posets", "_ideal_masks", "posets.ideal_masks"),
    ("simcores.posets", "order_ideals", "posets.order_ideals"),
    ("simcores.stats", "compute_stats", "stats.compute_stats"),
    ("simcores.stats", "average_size_check", "stats.average_size_check"),
    ("simcores.stats", "verify_stat_recursions", "stats.verify_stat_recursions"),
    ("simcores.betaset", "ideal_to_partition", "betaset.ideal_to_partition"),
    ("simcores.series", "fuss_catalan_series", "series.fuss_catalan_series"),
    ("simcores.series", "stat_series", "series.stat_series"),
    ("simcores.series", "check_identities", "series.check_identities"),
    ("simcores.series", "cross_check", "series.cross_check"),
)
ROOT_SPAN = "cli"

# The caches a fresh process starts without.
CACHES = (("simcores.posets", "gap_poset"), ("simcores.posets", "family_poset"),
          ("simcores.posets", "_ideal_masks"), ("simcores.stats", "compute_stats"))

REPORTED_COUNTS = {"posets.ideal_masks.hits": "count",
                   "posets.ideal_masks.misses": "count",
                   "posets.ideals_enumerated": "count",
                   "stats.compute_stats.calls": "count",
                   "betaset.ideal_to_partition.calls": "count",
                   "series.mul.calls": "count",
                   "series.mul.coeff_ops": "count",
                   "series.max_coeff_bits": "bits",
                   "cli.stdout_bytes": "B"}


class Tracer:
    """Wrappers that record spans and counts while installed."""

    def __init__(self, keep_spans: bool):
        self.keep_spans = keep_spans
        self.names = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.counts = Counter()
        self.max_coeff_bits = 0
        self._patches = []

    def wrap(self, name, fn):
        """`fn` recorded as span `name`, counting calls and cache use."""
        name_id = len(self.names)
        self.names.append(name)
        keep, stack, counts = self.keep_spans, self.stack, self.counts
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end = self.span_start, self.span_end
        cache_info = getattr(fn, "cache_info", None)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            hits = cache_info().hits if cache_info else 0
            if keep:
                idx = len(span_start)
                span_name.append(name_id)
                span_parent.append(stack[-1])
                span_start.append(0.0)
                span_end.append(0.0)
                stack.append(idx)
                span_start[idx] = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    span_end[idx] = clock()
                    stack.pop()
            else:
                result = fn(*args, **kwargs)
            counts[name + ".calls"] += 1
            if cache_info:
                if cache_info().hits > hits:
                    counts[name + ".hits"] += 1
                else:
                    counts[name + ".misses"] += 1
                    if name == "posets.ideal_masks":
                        counts["posets.ideals_enumerated"] += len(result)
            return result

        return traced

    def _count_products(self, series_cls):
        original = series_cls.__mul__
        counts = self.counts
        tracer = self

        def mul(a, b):
            out = original(a, b)
            if out is NotImplemented:
                return out
            counts["series.mul.calls"] += 1
            if isinstance(b, series_cls):
                n = min(a.order, b.order)
                counts["series.mul.coeff_ops"] += sum(
                    n + 1 - i for i in range(n + 1) if a[i])
            else:
                counts["series.mul.coeff_ops"] += a.order + 1
            bits = max(max(c.numerator.bit_length(), c.denominator.bit_length())
                       for c in (out[k] for k in range(out.order + 1)))
            tracer.max_coeff_bits = max(tracer.max_coeff_bits, bits)
            return out

        return mul

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    @contextlib.contextmanager
    def installed(self):
        modules = [importlib.import_module(m) for m in MODULES]
        try:
            for module_name, attr, name in LAYERS:
                original = getattr(importlib.import_module(module_name), attr)
                wrapper = self.wrap(name, original)
                for module in modules:
                    for key in [k for k, v in vars(module).items() if v is original]:
                        self._patch(module, key, wrapper)
            series_cls = importlib.import_module("simcores.series").TruncatedSeries
            mul = self._count_products(series_cls)
            self._patch(series_cls, "__mul__", mul)
            self._patch(series_cls, "__rmul__", mul)
            yield self
        finally:
            while self._patches:
                owner, attr, value = self._patches.pop()
                setattr(owner, attr, value)

    def self_times(self) -> Counter:
        out = Counter()
        for idx in range(len(self.span_start)):
            duration = self.span_end[idx] - self.span_start[idx]
            out[self.names[self.span_name[idx]]] += duration
            parent = self.span_parent[idx]
            if parent >= 0:
                out[self.names[self.span_name[parent]]] -= duration
        return out

    def spans(self):
        t0 = self.span_start[0] if len(self.span_start) else 0.0
        return [[self.span_name[i], round(self.span_start[i] - t0, 9),
                 round(self.span_end[i] - t0, 9), self.span_parent[i]]
                for i in range(len(self.span_start))]


def digest(stdout: bytes) -> dict:
    return {"sha256": hashlib.sha256(stdout).hexdigest(), "bytes": len(stdout)}


def _run_job(main, argv, caches):
    """One cold in-process job: (seconds, exit code, stdout bytes)."""
    for cache in caches:
        cache.cache_clear()
    gc.collect()
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        code = main(list(argv))
        seconds = time.perf_counter() - start
    return seconds, code, out.getvalue().encode()


def _count_in_fresh_process(argv, src: Path):
    """Run one job with counting wrappers in a new interpreter."""
    proc = subprocess.run([sys.executable, __file__, str(src), *argv],
                          capture_output=True, text=True, check=True,
                          timeout=JOB_TIMEOUT_S)
    return json.loads(proc.stdout.splitlines()[-1])


def count_job(argv, src: Path) -> dict:
    """Counts, stdout digest and max-RSS growth of one job, in a fork of
    this process after it has imported simcores.

    An exec'd process's max-RSS starts at its parent's RSS, which may be far
    above its own; a fork's starts at the RSS it inherits, so the growth it
    reports is the job's alone.
    """
    sys.path.insert(0, str(src))
    cli = importlib.import_module("simcores.cli")
    caches = [getattr(importlib.import_module(m), a) for m, a in CACHES]
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_end)
        tracer = Tracer(keep_spans=False)
        with tracer.installed():
            main = tracer.wrap(ROOT_SPAN, cli.main)
            before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            _, code, out = _run_job(main, argv, caches)
            after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        tracer.counts["cli.stdout_bytes"] += len(out)
        result = {"exit": code, **digest(out), "counts": tracer.counts,
                  "max_coeff_bits": tracer.max_coeff_bits,
                  "rss_growth_mb": (after - before) / 1024}
        with os.fdopen(write_end, "w") as fh:
            json.dump(result, fh)
        os._exit(0)
    os.close(write_end)
    with os.fdopen(read_end) as fh:
        text = fh.read()
    _, status = os.waitpid(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0 or not text:
        raise RuntimeError(f"counting run of {argv} failed")
    return json.loads(text)


def run_traced(jobs, gate, src: Path, out_dir: Path, label: str):
    """Run `jobs` traced; return ({metric: (value, unit)}, deterministic)."""
    repeat_counts = Counter()
    repeat_bits = 0
    rss_growth = 0.0
    for argv in jobs:
        repeat = _count_in_fresh_process(argv, src)
        gate.check(argv, repeat)
        repeat_counts.update(repeat["counts"])
        repeat_bits = max(repeat_bits, repeat["max_coeff_bits"])
        rss_growth = max(rss_growth, repeat["rss_growth_mb"])

    sys.path.insert(0, str(src))
    cli = importlib.import_module("simcores.cli")
    caches = [getattr(importlib.import_module(m), a) for m, a in CACHES]
    plain_s = traced_s = 0.0
    self_s = Counter()
    traced_counts = Counter()
    traced_bits = 0
    tracers = []
    for argv in jobs:
        seconds, code, out = _run_job(cli.main, argv, caches)
        gate.check(argv, {"exit": code, **digest(out)})
        plain_s += seconds

        tracer = Tracer(keep_spans=True)
        with tracer.installed():
            seconds, code, out = _run_job(tracer.wrap(ROOT_SPAN, cli.main),
                                          argv, caches)
        gate.check(argv, {"exit": code, **digest(out)})
        traced_s += seconds
        tracer.counts["cli.stdout_bytes"] += len(out)
        self_s.update(tracer.self_times())
        traced_counts.update(tracer.counts)
        traced_bits = max(traced_bits, tracer.max_coeff_bits)
        tracers.append(tracer)

    _write_spans(jobs, tracers, out_dir, label)
    traced_counts["series.max_coeff_bits"] = traced_bits
    repeat_counts["series.max_coeff_bits"] = repeat_bits
    deterministic = traced_counts == repeat_counts
    if not deterministic:
        diff = {k: (traced_counts[k], repeat_counts[k])
                for k in traced_counts.keys() | repeat_counts.keys()
                if traced_counts[k] != repeat_counts[k]}
        print(f"NONDETERMINISTIC counts (traced, repeat): {diff}")

    metrics = {f"{name}.self_s": (self_s[name], "s")
               for name in [layer[2] for layer in LAYERS] + [ROOT_SPAN]}
    for key, unit in REPORTED_COUNTS.items():
        metrics[key] = (traced_counts[key], unit)
    metrics["trace.overhead_s"] = (traced_s - plain_s, "s")
    metrics["job_rss_growth_mb"] = (rss_growth, "MB")
    print(f"in-process wall: untraced {plain_s:.3f} s, traced {traced_s:.3f} s")
    return metrics, deterministic


def _write_spans(jobs, tracers, out_dir: Path, label: str):
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{label}.jsonl.gz"
    with gzip.open(path, "wt", compresslevel=1) as fh:
        fh.write(json.dumps({"names": tracers[0].names if tracers else [],
                             "span": ["name", "start_s", "end_s", "parent"]}) + "\n")
        for argv, tracer in zip(jobs, tracers):
            fh.write(json.dumps({"argv": list(argv), "spans": tracer.spans()}) + "\n")
    print(f"spans written to {path}")


if __name__ == "__main__":
    result = count_job(sys.argv[2:], Path(sys.argv[1]))
    print(json.dumps(result))
