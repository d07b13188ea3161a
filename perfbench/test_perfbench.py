"""Self-tests of the benchmark harness: python3 -m pytest perfbench"""

from __future__ import annotations

import json
import re

import pytest

import gate
import run
import spans
import workloads

NAME = re.compile(r"[A-Za-z0-9_.-]+")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_job_lists_are_a_function_of_the_seed(workload):
    for seed in range(3 * workloads.SHIPPED_SEEDS):
        assert workloads.jobs(workload, seed) == workloads.jobs(workload, seed)
        assert workloads.jobs(workload, seed) == workloads.jobs(
            workload, seed + workloads.SHIPPED_SEEDS)
        jobs = {name for name, _ in workloads.jobs(workload, seed)}
        assert set(run.load_references(workload, seed)) == jobs
    if workload != "figures":
        assert workloads.jobs(workload, 0) != workloads.jobs(workload, 1)


def _write_reference_tables(workload, seed, out_dir):
    references = run.load_references(workload, seed)
    codes = []
    for name, argv in workloads.jobs(workload, seed):
        (out_dir / f"{name}.csv").write_text(references[name]["csv"], encoding="utf-8")
        codes.append((name, argv[0], references[name]["exit"]))
    return references, codes


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_gate_counts_corrupted_cell_and_wrong_exit_code(workload, tmp_path):
    references, codes = _write_reference_tables(workload, 5, tmp_path)
    rows = sum(len(gate.parse_csv(references[name]["csv"])[2]) for name, _, _ in codes)
    assert run.gate_pass(codes, tmp_path, references) == (0, rows)

    name, command, code = codes[-1]
    wrong_exit = codes[:-1] + [(name, command, 1)]
    assert run.gate_pass(wrong_exit, tmp_path, references)[0] == 1

    path = tmp_path / f"{name}.csv"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    row = lines[-1].rstrip("\n").split(",")
    if command == "validate":
        row[-1] = "false" if row[-1] == "true" else "true"
    else:
        row[1] = repr(float(row[1]) + 1e-6)
    path.write_text("".join(lines[:-1]) + ",".join(row) + "\n", encoding="utf-8")
    assert run.gate_pass(codes, tmp_path, references)[0] == 1


def test_every_metric_has_a_valid_name_and_unit():
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.fullmatch(metric["name"]) and len(metric["name"]) <= 64
        assert UNIT.fullmatch(metric["unit"])
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    assert per_layer == set(spans.pass_metrics([], 1.0)) | {"trace.overhead_frac"}


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_match_the_spec(trace, capsys):
    assert run.main(["--workload", "figures", "--seed", "7", "--seconds", "0.1",
                     "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 6
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for metric in expected:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_tracer_restores_the_package():
    run.load_cli()
    from ionparity import cli, fluctuations, preparation, states

    before = (cli.main, cli.pool_map, preparation.averaged_ground_probability,
              fluctuations.rabi_spectrum, states.TwoModeState.__post_init__)
    tracer = spans.Tracer("ionparity")
    with tracer.installed():
        assert preparation.averaged_ground_probability is not before[2]
        assert cli.pool_map is not before[1]
    assert (cli.main, cli.pool_map, preparation.averaged_ground_probability,
            fluctuations.rabi_spectrum, states.TwoModeState.__post_init__) == before


def test_tracer_refuses_a_hook_that_does_not_fit(monkeypatch):
    run.load_cli()
    monkeypatch.setitem(spans.HOOKS, "dynamics.rabi_spectrum", lambda n, g, extra: None)
    with pytest.raises(spans.BindError, match="dynamics.rabi_spectrum"):
        with spans.Tracer("ionparity").installed():
            pass


def test_tracer_refuses_a_missing_function(monkeypatch):
    run.load_cli()
    from ionparity import fluctuations

    monkeypatch.delattr(fluctuations, "gamma_kernel")
    with pytest.raises(spans.BindError, match="fluctuations.gamma_kernel"):
        with spans.Tracer("ionparity").installed():
            pass


def test_a_failing_hook_fails_the_traced_run(monkeypatch, capsys):
    def broken(n_total, g):
        raise AttributeError("no such field")

    monkeypatch.setitem(spans.HOOKS, "dynamics.rabi_spectrum", broken)
    assert run.main(["--workload", "figures", "--seed", "7", "--seconds", "0.1",
                     "--trace", "1"]) == 0
    captured = capsys.readouterr()
    result = json.loads(captured.out.splitlines()[-1])
    assert not result["correct"] and result["failed"] >= 6
    assert "dynamics.rabi_spectrum: AttributeError" in captured.err
