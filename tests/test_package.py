import ast
import importlib
import subprocess
import sys
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


def _defined(statement: ast.stmt) -> list[str]:
    """Names one module-level statement binds."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [statement.name]
    if isinstance(statement, (ast.Assign, ast.AnnAssign)):
        targets = statement.targets if isinstance(statement, ast.Assign) else [statement.target]
        return [node.id for target in targets for node in ast.walk(target)
                if isinstance(node, ast.Name)]
    if isinstance(statement, ast.Import) or (
            isinstance(statement, ast.ImportFrom) and statement.module != "__future__"):
        return [alias.asname or alias.name.split(".")[0] for alias in statement.names]
    return []


def _dead_names(sources: dict[str, str], exported: set[str]) -> list[str]:
    """Module-level names the sources define that none of them reads, by name
    or as an attribute, and that ``exported`` does not list; dunders are the
    interpreter's."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return sorted(f"{module}: {name} (line {statement.lineno})"
                  for module, tree in trees.items() for statement in tree.body
                  for name in _defined(statement)
                  if name not in read | exported and not name.startswith("__"))


def test_every_module_level_name_in_the_package_is_read_or_exported():
    sources = {path.name: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    assert _dead_names(sources, set(ionparity.__all__)) == []


def test_the_dead_name_finder_sees_a_name_kept_only_for_tests():
    sources = {
        "checks.py": ("import itertools\n\nGRID = 5\n\nclass _Cells:\n    pass\n\n"
                      "def run_all():\n    return itertools.repeat(GRID)\n"),
        "cli.py": "from . import checks\n\ndef main():\n    return checks.run_all()\n",
    }
    assert _dead_names(sources, {"main"}) == ["checks.py: _Cells (line 5)"]


def test_a_failing_hypothesis_test_reports_as_a_failure(tmp_path):
    # Under the project's warning filters, a failing @given test must end as
    # one failure and let the session go on, not as an INTERNALERROR raised
    # while hypothesis prints the failing example's patch
    (tmp_path / "test_property.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_fails(value):\n"
        "    assert value < 5\n\n\n"
        "def test_runs_after_it():\n"
        "    pass\n", encoding="utf-8")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(TESTS.parent / "pyproject.toml"), "--rootdir", str(tmp_path),
         str(tmp_path / "test_property.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
    assert run.returncode == 1
