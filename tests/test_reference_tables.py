"""The benchmark's tables against their recorded references: every
``figures`` table, the Monte-Carlo tables and the validate reports nearest
their bound; and the benchmark's span tracer against the package it wraps.

``perfbench/gate.py`` compares every numeric cell with the table recorded
when the benchmark was defined, at rounding level (rel 1e-9, abs 1e-12), so
Monte-Carlo drift beyond rounding fails here.  In a validate report it
compares every cell but ``measured``, so a check whose ``passed`` flag flips
fails here too.  The job lists, the gate, the tracer and the reference
tables are read from ``perfbench/`` as they are.
"""

import importlib
import importlib.util
import inspect
import json
from pathlib import Path

import pytest

import ionparity
from ionparity import cli, dynamics, fluctuations, preparation

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


gate = _load("gate")
spans = _load("spans")
workloads = _load("workloads")
REFERENCES = {workload: json.loads((PERFBENCH / "reference" / f"{workload}.json")
                                   .read_text(encoding="utf-8"))
              for workload in ("figures", "montecarlo", "validate")}


def _matches_its_reference(workload, job, seed, tmp_path):
    argv = dict(workloads.jobs(workload, seed))[job]
    out = tmp_path / f"{job}.csv"
    code = cli.main([*argv, "--out", str(out)])
    reference = REFERENCES[workload][workloads.reference_key(workload, seed)][job]
    problems, rows = gate.check(argv[0], code, out.read_text(encoding="utf-8"), reference)
    assert not problems and rows > 0


@pytest.mark.parametrize("job", [name for name, _ in workloads.jobs("figures", 0)])
def test_figures_table_matches_its_reference(job, tmp_path):
    _matches_its_reference("figures", job, 0, tmp_path)


# eta-mc at every shipped program seed (about 0.05 s each), tau-mc (about
# 0.4 s each) at two
@pytest.mark.parametrize("job, seed", [("tau-mc", 0), ("tau-mc", 7),
                                       *(("eta-mc", seed)
                                         for seed in range(workloads.SHIPPED_SEEDS))])
def test_monte_carlo_table_matches_its_reference(job, seed, tmp_path):
    _matches_its_reference("montecarlo", job, seed, tmp_path)


# the program seeds whose largest Monte-Carlo pull lies nearest the bound of
# 3: 3.29 and 3.02 fail it, 2.89 passes
@pytest.mark.parametrize("seed", [2, 12, 14])
def test_validate_report_matches_its_reference(seed, tmp_path, capsys):
    _matches_its_reference("validate", "validate", seed, tmp_path)


def _bindings():
    """Every function of the package and its layers, and each traced
    constructor, by the name the tracer gives it."""
    layers = {layer: importlib.import_module(f"ionparity.{layer}") for layer in spans.LAYERS}
    bound = {}
    for layer, module in layers.items():
        for attr, value in vars(module).items():
            if inspect.isfunction(value):
                bound[f"{layer}.{attr}"] = value
    for layer, cls_name, method in spans.CONSTRUCTORS:
        bound[f"{layer}.{cls_name}"] = vars(getattr(layers[layer], cls_name))[method]
    bound.update({f"ionparity.{attr}": value for attr, value in vars(ionparity).items()
                  if inspect.isfunction(value)})
    return bound


def test_benchmark_tracer_binds_and_restores_the_package():
    # deleting or re-signing a name the tracer wraps raises spans.BindError here
    before = _bindings()
    with spans.Tracer("ionparity").installed():
        during = _bindings()
    assert {name for name in spans.TRACED if during[name] is before[name]} == set()
    assert _bindings() == before


def test_benchmark_tests_find_the_names_they_read_directly():
    # perfbench/test_perfbench.py reads these two imported copies directly and
    # sees the tracer rebind them with the functions they copy; the tier-1
    # suite does not run that file
    assert preparation.averaged_ground_probability is fluctuations.averaged_ground_probability
    assert fluctuations.rabi_spectrum is dynamics.rabi_spectrum
