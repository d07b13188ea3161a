"""The Monte-Carlo benchmark tables and the validate reports nearest their
bound against their recorded references.

``perfbench/gate.py`` compares every numeric cell with the table recorded
when the benchmark was defined, at rounding level (rel 1e-9, abs 1e-12), so
Monte-Carlo drift beyond rounding fails here.  In a validate report it
compares every cell but ``measured``, so a check whose ``passed`` flag flips
fails here too.  The job lists, the gate and the reference tables are read
from ``perfbench/`` as they are.
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
REFERENCES = {workload: json.loads((PERFBENCH / "reference" / f"{workload}.json")
                                   .read_text(encoding="utf-8"))
              for workload in ("montecarlo", "validate")}


def _matches_its_reference(workload, job, seed, tmp_path):
    argv = dict(workloads.jobs(workload, seed))[job]
    out = tmp_path / f"{job}.csv"
    code = cli.main([*argv, "--out", str(out)])
    reference = REFERENCES[workload][workloads.reference_key(workload, seed)][job]
    problems, rows = gate.check(argv[0], code, out.read_text(encoding="utf-8"), reference)
    assert not problems and rows > 0


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("job", ["tau-mc", "eta-mc"])
def test_monte_carlo_table_matches_its_reference(job, seed, tmp_path):
    _matches_its_reference("montecarlo", job, seed, tmp_path)


# the program seeds whose largest Monte-Carlo pull lies nearest the bound of
# 3: 3.29 and 3.02 fail it, 2.89 passes
@pytest.mark.parametrize("seed", [2, 12, 14])
def test_validate_report_matches_its_reference(seed, tmp_path, capsys):
    _matches_its_reference("validate", "validate", seed, tmp_path)
