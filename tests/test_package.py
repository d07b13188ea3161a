import importlib
from pathlib import Path

import ionparity
import ionparity.cli


def test_exports_are_sorted_unique_and_defined_in_the_package():
    names = ionparity.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    for name in names:
        module = getattr(ionparity, name).__module__
        assert module.startswith("ionparity."), (name, module)


def test_benchmark_tracer_still_binds_to_the_package(monkeypatch):
    # perfbench/spans.py wraps package functions by name and signature, as the
    # benchmark imports it; a deleted or re-signed one makes installing raise
    # BindError, so a change that breaks the benchmark's tracer fails here
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    spans = importlib.import_module("spans")
    constructors = {f"{layer}.{name}" for layer, name, _ in spans.CONSTRUCTORS}
    functions = sorted(spans.TRACED - constructors)
    with spans.Tracer("ionparity").installed():
        for name in functions:
            layer, attr = name.split(".")
            traced = getattr(importlib.import_module(f"ionparity.{layer}"), attr)
            assert traced is not traced.__wrapped__, name
    assert not hasattr(ionparity.cli.main, "__wrapped__")
