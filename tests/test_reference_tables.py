"""The Monte-Carlo benchmark tables against their recorded references.

``perfbench/gate.py`` compares every numeric cell with the table recorded
when the benchmark was defined, at rounding level (rel 1e-9, abs 1e-12), so
Monte-Carlo drift beyond rounding fails here.  The job lists, the gate and the
reference tables are read from ``perfbench/`` as they are.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from ionparity import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


gate = _load("gate")
workloads = _load("workloads")
REFERENCES = json.loads((PERFBENCH / "reference" / "montecarlo.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("job", ["tau-mc", "eta-mc"])
def test_monte_carlo_table_matches_its_reference(job, seed, tmp_path):
    argv = dict(workloads.jobs("montecarlo", seed))[job]
    out = tmp_path / f"{job}.csv"
    code = cli.main([*argv, "--out", str(out)])
    reference = REFERENCES[workloads.reference_key("montecarlo", seed)][job]
    problems, rows = gate.check(argv[0], code, out.read_text(encoding="utf-8"), reference)
    assert not problems and rows > 0
