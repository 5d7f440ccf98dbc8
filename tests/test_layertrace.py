"""The benchmark's layer tracer rebinds simcores functions by name; every
name it lists must still exist, or `bench/run.py --trace 1` breaks."""

import importlib
from pathlib import Path


def test_traced_names_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    layertrace = importlib.import_module("layertrace")
    assert layertrace.LAYERS and layertrace.CACHES
    for module, attr, _ in layertrace.LAYERS:
        assert callable(getattr(importlib.import_module(module), attr)), attr
    for module, attr in layertrace.CACHES:
        assert hasattr(getattr(importlib.import_module(module), attr),
                       "cache_clear"), attr
    series_cls = importlib.import_module("simcores.series").TruncatedSeries
    assert {"__mul__", "__rmul__"} <= set(vars(series_cls))
