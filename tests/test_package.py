import ast
import importlib
from pathlib import Path

import pytest

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


PACKAGE = Path(ionparity.__file__).parent
TESTS = Path(__file__).parent


def _unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads; ``from __future__`` imports
    are directives, not names."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in read)


# the package's __init__.py imports to re-export, so it is the one module left
# out; the tests are read too, where a deleted name leaves its import behind
MODULES = {path.name: path for path in PACKAGE.glob("*.py") if path.name != "__init__.py"}
MODULES.update({f"tests/{path.name}": path for path in TESTS.glob("*.py")})


@pytest.mark.parametrize("module", sorted(MODULES))
def test_no_module_imports_a_name_it_never_uses(module):
    assert _unused_imports(MODULES[module].read_text(encoding="utf-8")) == []


def test_the_unused_import_finder_sees_a_stale_import():
    source = ("from .states import TwoModeState, effective_coupling\n\n"
              "def f():\n    return effective_coupling\n")
    assert _unused_imports(source) == ["TwoModeState (line 1)"]
