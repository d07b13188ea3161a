import importlib.util
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


def test_benchmark_tracer_still_binds_to_the_package():
    # perfbench/spans.py wraps package functions by name and signature; a
    # renamed or re-signed one makes installing raise BindError
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    tracer = spans.Tracer("ionparity")
    with tracer.installed():
        assert ionparity.cli.main is not ionparity.cli.main.__wrapped__
    assert not hasattr(ionparity.cli.main, "__wrapped__")
