import contextlib
import io
import json
import math
import os
import resource
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from ionparity import checks, cli, dynamics
from ionparity.checks import CheckResult


def run_cli(*argv) -> int:
    return cli.main(list(argv))


def read(path) -> str:
    return path.read_text(encoding="utf-8")


def _fresh_cli(*argv, preexec_fn=None, **env) -> subprocess.CompletedProcess:
    """ionparity.cli run in a fresh process with extra environment variables."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, "-m", "ionparity.cli", *argv], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src, **env},
                          preexec_fn=preexec_fn)


def test_dynamics_single_point_is_initial_condition(tmp_path):
    out = tmp_path / "dyn.csv"
    code = run_cli(
        "dynamics", "--n", "9", "--t-max", "0", "--t-steps", "1", "--out", str(out)
    )
    assert code == 0
    lines = [l for l in read(out).splitlines() if not l.startswith("#")]
    assert lines[0] == "gt,t_seconds,p_ground,entropy"
    gt, t, p, s = lines[1].split(",")
    assert float(gt) == 0.0 and float(t) == 0.0
    assert float(p) == 1.0 and float(s) == 0.0


def test_dynamics_csv_layout_and_metadata(tmp_path):
    out = tmp_path / "dyn.csv"
    assert run_cli("dynamics", "--t-steps", "11", "--out", str(out)) == 0
    text = read(out)
    header = [l for l in text.splitlines() if l.startswith("#")]
    assert any(l.startswith("# command=dynamics") for l in header)
    assert any(l.startswith("# n=9") for l in header)
    assert any(l.startswith("# g=1.0000000000000000e+05") for l in header)
    rows = [l for l in text.splitlines() if not l.startswith("#")][1:]
    assert len(rows) == 11
    gts = [float(r.split(",")[0]) for r in rows]
    assert gts == sorted(gts)
    assert gts[-1] == pytest.approx(10.0)


def test_dynamics_json_structure(tmp_path):
    out = tmp_path / "dyn.json"
    assert run_cli(
        "dynamics", "--t-steps", "3", "--t-max", "2", "--format", "json", "--out", str(out)
    ) == 0
    payload = json.loads(read(out))
    assert payload["config"]["command"] == "dynamics"
    assert payload["columns"] == ["gt", "t_seconds", "p_ground", "entropy"]
    assert len(payload["records"]) == 3
    assert payload["records"][0]["p_ground"] == 1.0


def test_tau_sweep_values_and_order(tmp_path):
    out = tmp_path / "tau.csv"
    code = run_cli(
        "tau-sweep", "--tau-min", "1e-9", "--tau-max", "1e-7", "--tau-steps", "5",
        "--out", str(out),
    )
    assert code == 0
    rows = [l.split(",") for l in read(out).splitlines() if not l.startswith("#")][1:]
    taus = [float(r[0]) for r in rows]
    assert taus == sorted(taus)
    deltas = [float(r[1]) for r in rows]
    assert deltas[0] > 10.0 * deltas[-1]  # strong decay across the sweep
    assert all(float(r[2]) - float(r[3]) == pytest.approx(d) for r, d in zip(rows, deltas))


def test_tau_sweep_with_preparation(tmp_path):
    out = tmp_path / "tau_prep.csv"
    code = run_cli(
        "tau-sweep", "--tau-steps", "2", "--eta-prep", "0.9", "--out", str(out)
    )
    assert code == 0
    header = read(out).splitlines()
    assert any(l.startswith("# eta_prep=") for l in header)


def test_eta_sweep_grid_order(tmp_path):
    out = tmp_path / "eta.csv"
    code = run_cli(
        "eta-sweep", "--tau", "1e-9", "1e-8", "--eta-min", "0.5", "--eta-max", "1.0",
        "--eta-steps", "3", "--out", str(out),
    )
    assert code == 0
    rows = [l.split(",") for l in read(out).splitlines() if not l.startswith("#")][1:]
    assert len(rows) == 6
    assert [float(r[0]) for r in rows] == [1e-9] * 3 + [1e-8] * 3
    assert [float(r[1]) for r in rows[:3]] == pytest.approx([0.5, 0.75, 1.0])


def test_eta_sweep_visibility_grows_with_efficiency(tmp_path):
    out = tmp_path / "eta2.csv"
    assert run_cli(
        "eta-sweep", "--tau", "1e-9", "--eta-min", "0.5", "--eta-max", "1.0",
        "--eta-steps", "6", "--out", str(out),
    ) == 0
    rows = [l.split(",") for l in read(out).splitlines() if not l.startswith("#")][1:]
    deltas = [float(r[2]) for r in rows]
    assert deltas[-1] > deltas[0]


def test_byte_identical_reruns(tmp_path):
    out = tmp_path / "mc.csv"
    args = (
        "tau-sweep", "--mode", "mc", "--mc-samples", "2000", "--tau-steps", "4",
        "--seed", "123", "--out", str(out),
    )
    assert run_cli(*args) == 0
    first = out.read_bytes()
    assert run_cli(*args) == 0
    assert out.read_bytes() == first

    out_json = tmp_path / "dyn.json"
    args = ("dynamics", "--t-steps", "50", "--format", "json", "--out", str(out_json))
    assert run_cli(*args) == 0
    first = out_json.read_bytes()
    assert run_cli(*args) == 0
    assert out_json.read_bytes() == first


def test_worker_count_does_not_change_rows(tmp_path):
    out1, out2 = tmp_path / "w1.csv", tmp_path / "w2.csv"
    base = ("tau-sweep", "--tau-steps", "7", "--mode", "mc", "--mc-samples", "1000")
    assert run_cli(*base, "--workers", "1", "--out", str(out1)) == 0
    assert run_cli(*base, "--workers", "8", "--out", str(out2)) == 0
    body1 = [l for l in read(out1).splitlines() if not l.startswith("# workers")]
    body2 = [l for l in read(out2).splitlines() if not l.startswith("# workers")]
    assert body1 == body2


def test_config_file_precedence(tmp_path):
    config = tmp_path / "run.json"
    # an integer stands for a float flag, and null for a flag that is unset
    config.write_text(json.dumps({"n": 5, "t_steps": 4, "t_max": 2, "g": None}))
    out = tmp_path / "dyn.csv"
    assert run_cli(
        "dynamics", "--config", str(config), "--t-steps", "6", "--out", str(out)
    ) == 0
    header = read(out).splitlines()
    assert any(l.startswith("# n=5") for l in header)        # from the file
    assert any(l.startswith("# t_steps=6") for l in header)  # flag wins
    config.write_text(json.dumps({"tau": [1e-8], "mc_samples": 10, "workers": 1}))
    assert run_cli("eta-sweep", "--config", str(config), "--eta-steps", "2",
                   "--out", str(out)) == 0


def test_parameter_errors_exit_one(tmp_path, capsys):
    assert run_cli("tau-sweep", "--n", "10") == 1  # parity sweep needs odd n
    assert run_cli("dynamics", "--no-such-flag") == 1
    assert run_cli("tau-sweep", "--eta-prep", "0.9", "--delta", "0.5") == 1
    assert run_cli("eta-sweep", "--eta-min", "0", "--eta-max", "1") == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli("dynamics", "--config", str(bad)) == 1
    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"nope": 1}))
    assert run_cli("dynamics", "--config", str(unknown)) == 1
    assert run_cli() == 1


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--omega", "0"),
        ("--omega", "-1"),
        ("--omega", "nan"),
        ("--omega", "inf"),
        ("--eta-ld", "0"),
        ("--eta-ld", "-0.1"),
        ("--eta-ld", "1"),
        ("--eta-ld", "nan"),
    ],
)
def test_validate_rejects_bad_drive_before_any_check(flag, value, monkeypatch, capsys):
    def no_battery(**kwargs):
        raise AssertionError("the battery ran on a bad drive")

    monkeypatch.setattr(checks, "run_all", no_battery)
    assert run_cli("validate", flag, value) == 1
    name = flag.lstrip("-").replace("-", "_")
    assert f"error: {name} must" in capsys.readouterr().err


# One value outside its range for every ranged key of every subcommand, and
# the words its error gives the range.
INF, NAN = math.inf, math.nan
OUT_OF_RANGE = [
    ("dynamics", "n", -1, "a non-negative integer"),
    ("dynamics", "g", INF, "finite and positive"),
    ("dynamics", "nu", -1.0, "finite and positive"),
    ("dynamics", "omega", -1.0, "finite and non-negative"),
    ("dynamics", "eta_ld", NAN, "finite and non-negative"),
    ("dynamics", "t_max", NAN, "finite and non-negative"),
    ("dynamics", "t_steps", 0, "finite and positive"),
    ("tau-sweep", "n", 10, "odd and >= 3"),
    ("tau-sweep", "g", NAN, "finite and positive"),
    ("tau-sweep", "nu", 0.0, "finite and positive"),
    ("tau-sweep", "nu", INF, "finite and positive"),
    ("tau-sweep", "omega", INF, "finite and non-negative"),
    ("tau-sweep", "eta_ld", -0.1, "finite and non-negative"),
    ("tau-sweep", "tau_min", 0.0, "finite and positive"),
    ("tau-sweep", "tau_max", INF, "finite and positive"),
    ("tau-sweep", "tau_steps", 0, "finite and positive"),
    ("tau-sweep", "eta_prep", 0.0, "in (0, 1]"),
    ("tau-sweep", "eta_prep", 1.5, "in (0, 1]"),
    ("tau-sweep", "delta", INF, "finite and positive"),
    ("tau-sweep", "delta", NAN, "finite and positive"),
    ("tau-sweep", "mc_samples", 0, "finite and positive"),
    ("tau-sweep", "seed", -1, "a non-negative integer"),
    ("tau-sweep", "workers", -3, "finite and positive"),
    ("eta-sweep", "n", 1, "odd and >= 3"),
    ("eta-sweep", "omega", INF, "finite and non-negative"),
    ("eta-sweep", "tau", [1e-8, NAN], "finite and positive"),
    ("eta-sweep", "tau", [0.0], "finite and positive"),
    ("eta-sweep", "eta_min", 0.0, "in (0, 1]"),
    ("eta-sweep", "eta_max", 1.5, "in (0, 1]"),
    ("eta-sweep", "eta_steps", 0, "finite and positive"),
    ("eta-sweep", "mc_samples", -5, "finite and positive"),
    ("eta-sweep", "workers", 0, "finite and positive"),
    ("eta-sweep", "seed", -2, "a non-negative integer"),
    ("validate", "seed", -1, "a non-negative integer"),
    ("validate", "omega", 0.0, "finite and positive"),
    ("validate", "eta_ld", 1.0, "strictly between 0 and 1"),
]


@pytest.mark.parametrize("from_file", [False, True], ids=["flag", "config"])
@pytest.mark.parametrize("command, key, value, words", OUT_OF_RANGE,
                         ids=[f"{c}-{k}={v!r}" for c, k, v, _ in OUT_OF_RANGE])
def test_non_finite_or_negative_input_exits_one(command, key, value, words, from_file,
                                                monkeypatch, tmp_path, capsys):
    def no_battery(**kwargs):
        raise AssertionError("the battery ran on a rejected setting")

    monkeypatch.setattr(checks, "run_all", no_battery)
    if from_file:
        config = tmp_path / "run.json"
        config.write_text(json.dumps({key: value}))
        route = ["--config", str(config)]
    else:
        route = ["--" + key.replace("_", "-"), *map(repr, value if isinstance(value, list)
                                                    else [value])]
    assert run_cli(command, *route) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key} must be {words}, got ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_every_numeric_setting_declares_a_range_from_the_table():
    for command, rows in cli.SETTINGS.items():
        for key, (kind, _, accepted, _) in rows.items():
            if kind in (int, float, [float]):
                assert accepted is not None, (command, key)
            assert accepted is None or accepted in cli.RANGES, (command, key)


@pytest.mark.parametrize(
    "command, key, value",
    [
        ("dynamics", "n", "9"),
        ("eta-sweep", "tau", 1e-8),
        ("tau-sweep", "mc_samples", 1.5),
        ("tau-sweep", "workers", "2"),
        ("dynamics", "t_max", True),
    ],
)
def test_config_value_of_wrong_type_exits_one(command, key, value, tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({key: value}))
    assert run_cli(command, "--config", str(config)) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: config file {config}: {key} must be ")


def test_a_config_file_that_is_not_utf8_exits_one_naming_the_file(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_bytes(b'{"n": 9}\xff')
    assert run_cli("dynamics", "--config", str(config)) == 1
    assert capsys.readouterr().err.startswith(
        f"error: config file {config}: 'utf-8' codec can't decode byte 0xff")


def test_a_bad_choice_in_a_config_file_exits_one_before_the_battery(monkeypatch, tmp_path,
                                                                     capsys):
    def no_battery(**kwargs):
        raise AssertionError("the battery ran with a bad format")

    monkeypatch.setattr(checks, "run_all", no_battery)
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"format": "xml"}))
    assert run_cli("validate", "--config", str(config)) == 1
    assert capsys.readouterr().err == (f"error: config file {config}: format must be one of "
                                       "['csv', 'json'], got 'xml'\n")


@pytest.mark.parametrize("command", ["tau-sweep", "eta-sweep", "validate"])
@pytest.mark.parametrize("from_file", [False, True], ids=["flag", "config"])
def test_negative_seed_exits_one_naming_the_key(command, from_file, tmp_path, capsys):
    argv = [command, "--seed", "-1"]
    if from_file:
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"seed": -1}))
        argv = [command, "--config", str(config)]
    assert run_cli(*argv) == 1
    assert capsys.readouterr().err == "error: seed must be a non-negative integer, got -1\n"


def test_io_errors_exit_three(tmp_path):
    assert run_cli("dynamics", "--config", str(tmp_path / "missing.json")) == 3
    assert run_cli("dynamics", "--out", str(tmp_path / "no_dir" / "x.csv")) == 3


def test_validate_report_and_exit_codes(tmp_path, monkeypatch):
    passing = [CheckResult("alpha", 1e-12, 1e-8, True)]
    monkeypatch.setattr(checks, "run_all", lambda **kwargs: passing)
    out = tmp_path / "report.csv"
    assert run_cli("validate", "--out", str(out)) == 0
    rows = [l for l in read(out).splitlines() if not l.startswith("#")]
    assert rows[0] == "check,measured,bound,passed"
    assert rows[1].startswith("alpha,") and rows[1].endswith(",true")

    failing = passing + [CheckResult("beta", 0.5, 1e-8, False)]
    monkeypatch.setattr(checks, "run_all", lambda **kwargs: failing)
    assert run_cli("validate", "--out", str(out)) == 2
    assert "beta,5.0000000000000000e-01,1.0000000000000000e-08,false" in read(out)


# cli.main in a fresh process whose drive phases have the wrong sign,
# W(t) = sum_m e^{-i m nu t} W_m
_WRONG_SIGN_CLI = """
import sys
from ionparity import cli, propagators

coupling = propagators.LambDickeHamiltonian.coupling
propagators.LambDickeHamiltonian.coupling = lambda self, t: coupling(self, -t)
sys.exit(cli.main(sys.argv[1:]))
"""


def test_validate_with_a_wrong_sign_drive_reports_and_exits_two(tmp_path):
    # the populations keep their ratio row passing; the unitarity row fails
    out = tmp_path / "report.csv"
    src = str(Path(cli.__file__).resolve().parents[1])
    run = subprocess.run([sys.executable, "-c", _WRONG_SIGN_CLI, "validate", "--out", str(out)],
                         capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert run.returncode == 2
    lines = run.stderr.splitlines()
    assert len(lines) == 2 and lines[1] == "validation failed; see report"
    assert lines[0].startswith("lamb_dicke_unitarity: max|norm^2 - 1| = ")
    assert "lamb_dicke_unitarity," in read(out) and ",1.0000000000000000e-08,false" in read(out)
    assert "rwa_deviation_decreases," in read(out)
    assert ",1.0000000000000000e+00,true" in read(out)


def test_validate_at_eta_ld_0_99_passes(tmp_path):
    for full in ([], ["--full"]):
        assert run_cli("validate", "--eta-ld", "0.99", *full, "--seed", "3") == 0


def _reject_constant(name):
    raise ValueError(f"{name} is not strict JSON")


def test_validate_json_report_of_a_failed_check_is_strict(tmp_path, monkeypatch, capsys):
    failing = [CheckResult("alpha", 1e-12, 1e-8, True),
               CheckResult("beta", math.inf, 1e-8, False, "norm drift 2e-08 exceeds 1e-08"),
               CheckResult("gamma", 0.5, 1e-8, False)]
    monkeypatch.setattr(checks, "run_all", lambda **kwargs: failing)
    out = tmp_path / "report.json"
    assert run_cli("validate", "--format", "json", "--out", str(out)) == 2
    records = json.loads(read(out), parse_constant=_reject_constant)["records"]
    assert [r["measured"] for r in records] == [1e-12, "inf", 0.5]
    assert capsys.readouterr().err == ("beta: norm drift 2e-08 exceeds 1e-08\n"
                                       "gamma: measured 5.000e-01 > bound 1.000e-08\n"
                                       "validation failed; see report\n")


# Each drive the real battery cannot run, and the key its message starts with:
# a coupling g that underflows, so that the last time span / g overflows,
# names omega and eta_ld; a frame K = nu (N + sigma_z) whose rates overflow
# names omega; a largest frame phase above checks.RWA_MAX_PHASE names eta_ld.
@pytest.mark.parametrize(
    "argv, key",
    [
        ("--eta-ld 1e-300", "omega and eta_ld"),
        ("--eta-ld 1e-160", "omega and eta_ld"),
        ("--omega 5e-324", "omega and eta_ld"),
        ("--omega 1e-318", "omega and eta_ld"),
        ("--omega 4e305", "omega"),
        ("--full --omega 9e304", "omega"),
        ("--full --omega 1e306", "omega"),
        ("--omega 1e308", "omega"),
        ("--eta-ld 5e-154", "eta_ld"),
        ("--full --eta-ld 1e-153", "eta_ld"),
        ("--eta-ld 1e-12", "eta_ld"),
        ("--full --eta-ld 4e-11", "eta_ld"),
    ],
)
def test_validate_rejects_a_drive_the_battery_cannot_run(argv, key, capsys):
    # the battery is not replaced; a warning would fail the test (filterwarnings)
    assert run_cli("validate", *argv.split()) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key} must ") and err.count("\n") == 1


# validate runs a huge omega that RK4 could not step, and an omega of 1e-300:
# every drive rate and sample time scales with omega, so the report reads as
# at omega = 1 in every cell but measured
@pytest.mark.parametrize("argv", ["--omega 4e304", "--omega 3e305", "--full --omega 8e304",
                                  "--omega 1e-300"])
def test_validate_runs_a_drive_at_an_extreme_omega(argv, tmp_path):
    full = argv.split()[:-2]
    reports = []
    for args in (argv.split(), full):
        out = tmp_path / "report.csv"
        assert run_cli("validate", "--out", str(out), *args) == 0
        rows = [line.split(",") for line in read(out).splitlines() if not line.startswith("#")]
        reports.append([(check, bound, passed) for check, _, bound, passed in rows])
    assert reports[0] == reports[1]


def _bad_drive(omega: float, eta_ld: float) -> str | None:
    """The key a drive of validate's default RWA suite is rejected under, or
    None.  The frame rates of the fastest drive span nu (2 * 4 + 2) at
    nu = 50 omega, which must be finite; the coupling
    g = omega eta^2 exp(-eta^2/2) needs a finite last time 0.3 / g; and the
    largest phase, that span times 0.3 / g, must be at most 1e24."""
    if not 0.0 < omega < math.inf:
        return "omega"
    if not 0.0 < eta_ld < 1.0:
        return "eta_ld"
    span = 50.0 * omega * 10
    if not span < math.inf:
        return "omega"
    eta2 = eta_ld**2
    g = omega * eta2 * float(np.exp(-eta2 / 2.0))
    if not (g > 0.0 and 0.3 / g < math.inf):
        return "omega and eta_ld"
    if not span * (0.3 / g) <= 1e24:
        return "eta_ld"
    return None


@settings(max_examples=150, deadline=None)
@given(drive=st.fixed_dictionaries({}, optional={"omega": st.floats(), "eta_ld": st.floats()}))
# the edges of each range, on both sides
@example(drive={"omega": 0.0})
@example(drive={"omega": 3.5e305})
@example(drive={"omega": 3.6e305})
@example(drive={"eta_ld": 0.0})
@example(drive={"eta_ld": 1.0})
# in range, yet with frame rates of inf, or a coupling of 0.0
@example(drive={"omega": 1.7976931348623157e308, "eta_ld": 0.9999999999999999})
@example(drive={"omega": 5e-324, "eta_ld": 5e-324})
# in range, yet with a last sample time 0.3 / g of inf, or a largest phase
# above 1e24 (eta_ld 1.2e-11 is about the edge)
@example(drive={"eta_ld": 1e-160})
@example(drive={"eta_ld": 1.3e-11})
@example(drive={"eta_ld": 1.2e-11})
def test_validate_accepts_exactly_the_good_drives(drive, tmp_path_factory):
    # a good drive reaches the battery; a bad one exits 1 naming its key
    omega, eta_ld = drive.get("omega", 1.0), drive.get("eta_ld", 0.05)
    bad = _bad_drive(omega, eta_ld)
    config = tmp_path_factory.mktemp("drive") / "run.json"
    config.write_text(json.dumps(drive))
    flags = [f"--{key.replace('_', '-')}={value!r}" for key, value in drive.items()]
    for route in (["--config", str(config)], flags):
        calls = []

        def battery(**kwargs):
            calls.append(kwargs)
            return [CheckResult("alpha", 0.0, 1.0, True)]

        stdout, stderr = io.StringIO(), io.StringIO()
        with mock.patch.object(checks, "run_all", battery), \
                contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = run_cli("validate", *route)
        if bad is None:
            assert (code, stderr.getvalue()) == (0, "")
            assert [(c["drive_omega"], c["drive_eta_ld"]) for c in calls] == [(omega, eta_ld)]
        else:
            assert code == 1 and not calls
            assert stderr.getvalue().startswith(f"error: {bad} must ")


@settings(max_examples=50, deadline=None)
@given(n=st.integers(min_value=0, max_value=60),
       t_max=st.floats(min_value=0.0, max_value=50.0),
       t_steps=st.integers(min_value=1, max_value=200))
def test_dynamics_rows_are_probabilities_and_entropies(n, t_max, t_steps):
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = run_cli("dynamics", "--n", str(n), "--t-max", repr(t_max),
                       "--t-steps", str(t_steps), "--format", "json")
    assert code == 0
    payload = json.loads(stdout.getvalue())
    records = payload["records"]
    assert len(records) == t_steps
    times = np.array([r["t_seconds"] for r in records])
    p_ground = np.array([r["p_ground"] for r in records])
    entropy = np.array([r["entropy"] for r in records])
    assert np.all((p_ground >= -1e-12) & (p_ground <= 1.0 + 1e-12))
    assert np.all((entropy >= 0.0) & (entropy <= math.log(2.0)))
    expected = np.atleast_1d(dynamics.ground_probability(n, payload["config"]["g"], times))
    assert np.array_equal(p_ground, expected)


# the type each config key takes, per subcommand; a choice is a str of the list
MODES = ["gamma", "gaussian", "mc"]
FORMATS = ["csv", "json"]
CONFIG_TYPES = {
    "dynamics": {"n": int, "t_max": float, "t_steps": int, "g": float, "nu": float,
                 "omega": float, "eta_ld": float, "format": FORMATS, "out": str},
    "tau-sweep": {"n": int, "tau_min": float, "tau_max": float, "tau_steps": int,
                  "eta_prep": float, "delta": float, "mode": MODES, "mc_samples": int,
                  "seed": int, "workers": int, "g": float, "format": FORMATS},
    "eta-sweep": {"tau": list, "eta_min": float, "eta_max": float, "eta_steps": int,
                  "mode": MODES, "mc_samples": int, "seed": int, "workers": int},
    "validate": {"seed": int, "full": bool, "omega": float, "eta_ld": float,
                 "format": FORMATS},
}
_FLOATS = st.floats(allow_nan=False, allow_infinity=False)
_SCALAR_LISTS = st.lists(st.integers(), max_size=2)
WRONG_VALUES = {
    float: st.one_of(st.booleans(), st.text(), _SCALAR_LISTS),
    int: st.one_of(st.booleans(), _FLOATS, st.text(), _SCALAR_LISTS),
    str: st.one_of(st.booleans(), st.integers(), _FLOATS, _SCALAR_LISTS),
    bool: st.one_of(st.integers(), st.text(), _SCALAR_LISTS),
    list: st.one_of(_FLOATS, st.integers(), st.text(), st.lists(st.text(), max_size=2)),
}


@st.composite
def wrong_config(draw):
    command = draw(st.sampled_from(sorted(CONFIG_TYPES)))
    key = draw(st.sampled_from(sorted(CONFIG_TYPES[command])))
    kind = CONFIG_TYPES[command][key]
    if isinstance(kind, list):  # a choice: any other str, or no str at all
        wrong = st.one_of(WRONG_VALUES[str], st.text().filter(lambda text: text not in kind))
        return command, key, draw(wrong)
    return command, key, draw(WRONG_VALUES[kind])


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=wrong_config())
@example(case=("validate", "format", "xml"))
@example(case=("tau-sweep", "mode", "Gamma"))
def test_config_value_of_any_wrong_type_names_the_key(case, tmp_path):
    command, key, value = case
    config = tmp_path / "run.json"
    config.write_text(json.dumps({key: value}))
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code = run_cli(command, "--config", str(config))
    assert code == 1
    assert stderr.getvalue().startswith(f"error: config file {config}: {key} must be ")
    assert "Traceback" not in stderr.getvalue()


def test_coupling_derived_from_drive(tmp_path):
    out = tmp_path / "dyn.csv"
    assert run_cli(
        "dynamics", "--omega", "2e7", "--eta-ld", "0.05", "--t-steps", "2",
        "--out", str(out),
    ) == 0
    g_line = next(l for l in read(out).splitlines() if l.startswith("# g="))
    derived = 2e7 * 0.05**2 * np.exp(-(0.05**2) / 2.0)
    assert float(g_line.split("=")[1]) == pytest.approx(derived, rel=1e-12)


def test_inconsistent_coupling_triple_rejected():
    assert run_cli("dynamics", "--g", "123.0", "--omega", "2e7", "--eta-ld", "0.05") == 1


def test_consistent_coupling_triple_accepted(capsys):
    g = 2.0e7 * 0.05**2 * float(np.exp(-(0.05**2) / 2.0))
    assert run_cli("dynamics", "--g", repr(g), "--omega", "2e7", "--eta-ld", "0.05",
                   "--t-steps", "2") == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "argv",
    [
        # eta_ld^2 overflows: the coupling is inf * exp(-inf) = nan
        "dynamics --omega 1 --eta-ld 1e200",
        "tau-sweep --omega 1 --eta-ld 1e200",
        # an inf or nan coupling may not pass the consistency rule with a given g
        "dynamics --g 1e5 --omega 1e308 --eta-ld 10 --t-steps 2",
        "dynamics --g 1e5 --omega 1e300 --eta-ld 1e5",
        # nor be reported as a bad --g that was never given
        "dynamics --omega 1e300 --eta-ld 1e5",
    ],
)
def test_a_coupling_outside_the_floats_exits_one_naming_the_drive(argv, capsys):
    assert run_cli(*argv.split()) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: omega = ") and " and eta_ld = " in err
    assert err.count("\n") == 1


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(drive=st.fixed_dictionaries({"omega": st.floats(), "eta_ld": st.floats()},
                                   optional={"g": st.floats()}))
@example(drive={"omega": 1.0, "eta_ld": 1e200})
@example(drive={"omega": 1e308, "eta_ld": 10.0, "g": 1e5})
@example(drive={"omega": 1e300, "eta_ld": 1e5, "g": 1e5})
@example(drive={"omega": 1e300, "eta_ld": 1e5})
@example(drive={"omega": 0.0, "eta_ld": 0.05})
@example(drive={"omega": 2e7, "eta_ld": 0.05})
def test_any_drive_pair_gives_a_coupling_or_exits_one(drive, capsys):
    # a table carries a finite positive g within the consistency rule of the
    # drive's coupling; anything else is one error line
    flags = [f"--{key.replace('_', '-')}={value!r}" for key, value in drive.items()]
    code = run_cli("dynamics", "--t-steps", "2", *flags)
    out, err = capsys.readouterr()
    if code == 0:
        (g_line,) = [line for line in out.splitlines() if line.startswith("# g=")]
        g = float(g_line.split("=")[1])
        omega, eta2 = drive["omega"], drive["eta_ld"] * drive["eta_ld"]
        assert 0.0 < g < math.inf
        assert math.isclose(g, omega * eta2 * math.exp(-eta2 / 2.0), rel_tol=1e-6)
        assert err == ""
    else:
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1


def test_float_cells_carry_seventeen_significant_digits(tmp_path):
    out = tmp_path / "dyn.csv"
    assert run_cli("dynamics", "--t-steps", "2", "--t-max", "1", "--out", str(out)) == 0
    row = [l for l in read(out).splitlines() if not l.startswith("#")][2]
    mantissa = row.split(",")[2].split("e")[0]
    assert len(mantissa.split(".")[1]) == 16


def test_help_exits_zero(capsys):
    assert run_cli("--help") == 0
    capsys.readouterr()


def test_large_n_starts_in_the_ground_level(tmp_path):
    # N = 2201 is past the point where 2^(-N/2) underflows to 0
    out = tmp_path / "dyn.csv"
    assert run_cli("dynamics", "--n", "2201", "--t-steps", "2", "--out", str(out)) == 0
    first = [l for l in read(out).splitlines() if not l.startswith("#")][1]
    assert float(first.split(",")[2]) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize(
    "argv, kernel_value, column",
    [
        (["tau-sweep", "--mode", "gaussian", "--tau-steps", "3"], np.nan, "delta_p"),
        (["tau-sweep", "--mode", "gaussian", "--tau-steps", "3"], 1.5, "p_odd"),
        (["eta-sweep", "--mode", "gaussian", "--eta-steps", "3"], np.nan, "delta_p"),
    ],
)
def test_probability_out_of_range_exits_two(argv, kernel_value, column, monkeypatch,
                                            tmp_path, capsys):
    monkeypatch.setattr(cli.fluctuations, "gaussian_kernel",
                        lambda omega, g, tau, t: np.full(np.broadcast(omega, tau).shape,
                                                         kernel_value))
    out = tmp_path / "sweep.csv"
    assert run_cli(*argv, "--out", str(out)) == 2
    assert capsys.readouterr().err.startswith(f"error: {column} = ")
    assert not out.exists()


def test_dynamics_probability_out_of_range_exits_two(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(cli.dynamics, "ground_probability",
                        lambda n, g, times: np.full(np.shape(times), np.nan))
    assert run_cli("dynamics", "--t-steps", "3", "--out", str(tmp_path / "d.csv")) == 2
    assert capsys.readouterr().err.startswith("error: p_ground = nan ")


def test_rounding_above_one_is_within_the_slack(tmp_path):
    out = tmp_path / "dyn.csv"
    assert run_cli("dynamics", "--n", "8", "--t-steps", "2", "--out", str(out)) == 0
    first = [l for l in read(out).splitlines() if not l.startswith("#")][1]
    assert 1.0 < float(first.split(",")[2]) <= 1.0 + cli.PROBABILITY_SLACK


def test_reused_parser_matches_fresh_processes(tmp_path):
    # config-file run, flag run of the same subcommand, then another subcommand
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"n": 11, "mode": "gamma", "tau_steps": 3, "eta_prep": 0.8}))
    runs = [["tau-sweep", "--config", str(config)],
            ["tau-sweep", "--tau-steps", "2", "--format", "json"],
            ["dynamics", "--t-steps", "4"]]
    assert cli.build_parser() is cli.build_parser()
    for index, argv in enumerate(runs):
        here, fresh = tmp_path / f"here{index}", tmp_path / f"fresh{index}"
        assert run_cli(*argv, "--out", str(here)) == 0
        assert _fresh_cli(*argv, "--out", str(fresh)).returncode == 0
        assert here.read_bytes() == fresh.read_bytes()


# The paper's tables: the dynamics table, three tau-sweeps and two eta-sweeps.
FIGURES = [["dynamics", "--n", "9"],
           ["tau-sweep", "--mode", "gamma"],
           ["tau-sweep", "--mode", "gaussian"],
           ["tau-sweep", "--mode", "gaussian", "--eta-prep", "0.9"],
           ["eta-sweep", "--mode", "gaussian", "--tau", "1e-9", "1e-8", "1e-7"],
           ["eta-sweep", "--mode", "gamma"]]

_FIGURES_CLI = """
import json, sys
from ionparity import cli

out = sys.argv[1]
for index, argv in enumerate(json.loads(sys.argv[2])):
    assert cli.main([*argv, "--out", f"{out}/{index}.csv"]) == 0
print(" ".join(name for name in ("numpy.ma", "ionparity.checks", "concurrent.futures")
               if name in sys.modules))
"""


def test_the_figures_import_neither_the_battery_nor_a_thread_pool_nor_numpy_ma(tmp_path):
    # the validation battery and the Monte-Carlo pool load where they run;
    # numpy.ma is what a bare np.unique(x) would import
    src = str(Path(cli.__file__).resolve().parents[1])
    run = subprocess.run([sys.executable, "-c", _FIGURES_CLI, str(tmp_path), json.dumps(FIGURES)],
                         capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert (run.returncode, run.stderr, run.stdout) == (0, "", "\n")
    assert len(list(tmp_path.glob("*.csv"))) == len(FIGURES)


# 4 GiB of address space holds numpy and its BLAS threads, never a 7 TiB grid
ADDRESS_SPACE_LIMIT = 4 << 30


def _limit_address_space() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_LIMIT, ADDRESS_SPACE_LIMIT))


@pytest.mark.parametrize("argv", ["tau-sweep --tau-steps 1000000000000",
                                  "eta-sweep --eta-steps 1000000000000"])
def test_a_grid_that_cannot_be_allocated_exits_one_without_a_traceback(argv):
    run = _fresh_cli(*argv.split(), preexec_fn=_limit_address_space)
    assert run.returncode == 1
    assert run.stderr.startswith("error: not enough memory for this run (")
    assert "Traceback" not in run.stderr and run.stdout == ""


def _one_cpu() -> None:
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


ON_ONE_CPU = " on one CPU"


# validate --seed 2 fails its Monte-Carlo row, so the failing report is pinned too.  Which
# Monte-Carlo cells the battery's worker thread takes depends on the CPUs the process may
# use, so the last input runs --seed 3 pinned to one CPU against a child left unpinned
@pytest.mark.parametrize("argv", ["validate --seed 3", "validate --full", "validate --seed 2",
                                  "validate --seed 3" + ON_ONE_CPU])
def test_validate_output_does_not_depend_on_the_blas_thread_count(argv):
    if argv.endswith(ON_ONE_CPU):
        if not hasattr(os, "sched_setaffinity"):
            pytest.skip("the platform cannot pin a process to one CPU")
        argv = argv.removesuffix(ON_ONE_CPU)
        one, two = _fresh_cli(*argv.split(), preexec_fn=_one_cpu), _fresh_cli(*argv.split())
    else:
        one, two = (_fresh_cli(*argv.split(), OPENBLAS_NUM_THREADS=count) for count in ("1", "2"))
    assert (one.returncode, one.stderr, one.stdout) == (two.returncode, two.stderr, two.stdout)
    if argv == "validate --seed 2":
        assert one.returncode == 2
        assert one.stderr.startswith("monte_carlo_vs_gamma: measured 3.29")
    else:
        assert (one.returncode, one.stderr) == (0, "")


def _table(*argv) -> list[str]:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert run_cli(*argv) == 0
    return [l for l in stdout.getvalue().splitlines() if not l.startswith("#")]


@pytest.mark.parametrize("delta", ["1e-200", "1e-160", "5e-324"])
def test_a_width_below_resolution_gives_the_exact_state_table(delta, capsys):
    # 2 delta^2 is 0 or subnormal: the documented delta -> 0 limit, not 0/0
    exact = _table("tau-sweep", "--mode", "gamma", "--tau-steps", "3")
    assert _table("tau-sweep", "--mode", "gamma", "--tau-steps", "3", "--delta", delta) == exact
    assert capsys.readouterr().err == ""


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("mode", ["gamma", "mc"])
def test_a_tau_below_resolution_gives_the_fluctuation_free_row(mode, capsys):
    # t / 5e-324 overflows: the documented tau -> 0 limit, which gaussian gives
    argv = ("tau-sweep", "--tau-min", "5e-324", "--tau-max", "1e-300", "--tau-steps", "2",
            "--mc-samples", "1000")
    rows, reference = ([[float(cell) for cell in line.split(",")] for line in table[1:]]
                       for table in (_table(*argv, "--mode", mode),
                                     _table(*argv, "--mode", "gaussian")))
    assert rows[0][0] == reference[0][0] == 5e-324
    assert rows[0] == pytest.approx(reference[0], abs=1e-15)
    assert capsys.readouterr().err == ""


def test_a_tau_whose_scale_overflows_gives_a_table_in_every_mode(capsys):
    # g tau overflows at tau = 1.7e308: gamma and mc give the tau -> inf
    # limit of the exact law, gaussian its formula's decoherent value
    argv = ("tau-sweep", "--tau-min", "1.7e308", "--tau-max", "1.7e308", "--tau-steps", "1",
            "--mc-samples", "100")
    rows = {mode: [float(cell) for cell in _table(*argv, "--mode", mode)[1].split(",")]
            for mode in ("gamma", "mc", "gaussian")}
    assert rows["gamma"] == pytest.approx(rows["mc"], abs=1e-15)
    assert rows["gamma"][1] == pytest.approx(0.0, abs=1e-15)
    assert rows["gaussian"][1] == 2.0**-10
    assert capsys.readouterr().err == ""


# the largest g whose square is finite, and the next float up
LARGEST_GAUSSIAN_G = 1.3407807929942596e154


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command, mode", [("dynamics", None)] + [
    (command, mode) for command in ("tau-sweep", "eta-sweep") for mode in MODES])
@pytest.mark.parametrize("g", [5e-324, 1e-300, LARGEST_GAUSSIAN_G,
                               math.nextafter(LARGEST_GAUSSIAN_G, math.inf), 1e200,
                               1.7976931348623157e308])
def test_any_coupling_gives_a_table_or_exits_one_naming_g(g, command, mode, capsys):
    # dynamics: the times t_max / g and the fastest rate 2 g sqrt(20) of n = 9
    # must be finite floats.  The sweeps: the comparison time pi (2n - 1) / (8 g)
    # must be a finite positive float, and the Gaussian exponent needs a finite g**2
    if command == "dynamics":
        code = run_cli(command, "--g", repr(g), "--t-steps", "2")
        rejected = not (10.0 / g < math.inf and 2.0 * g * math.sqrt(20) < math.inf)
    else:
        steps = "--tau-steps" if command == "tau-sweep" else "--eta-steps"
        code = run_cli(command, "--mode", mode, "--g", repr(g), steps, "2", "--mc-samples", "500")
        t_compare = math.pi * 17 / (8.0 * g)  # n = 9
        rejected = not 0.0 < t_compare < math.inf or (mode == "gaussian" and g * g == math.inf)
    err = capsys.readouterr().err
    assert (code, err.startswith(f"error: g = {g!r} ")) == ((1, True) if rejected else (0, False))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n", [0, 1])
def test_dynamics_without_a_rate_still_rejects_an_overflowing_g(n, capsys):
    # N < 2 has only zero rates, but 2 g * 0 is nan where 2 g overflows
    assert run_cli("dynamics", "--n", str(n), "--g", "1.7976931348623157e308") == 1
    assert capsys.readouterr().err.startswith("error: g = 1.7976931348623157e+308 ")


@settings(max_examples=100, deadline=None)
@given(t_max=st.floats(min_value=0.0, allow_infinity=False))
@example(t_max=1e308)
@example(t_max=1.7976931348623157e308)
@example(t_max=1e302)
@example(t_max=5e-324)
def test_any_t_max_gives_a_table_or_exits_one_naming_t_max(t_max):
    # n = 9 at the default g: the largest phase is 2 f_max t_max / g with
    # f_max = 2 g sqrt(20), and it must be a finite float
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = run_cli("dynamics", "--t-max", repr(t_max), "--t-steps", "3", "--format", "json")
    g = cli.DEFAULT_G
    if not 2.0 * (t_max / g * (2.0 * g * math.sqrt(20))) < math.inf:
        assert code == 1 and stderr.getvalue().startswith(f"error: t_max = {t_max!r} ")
        return
    assert (code, stderr.getvalue()) == (0, "")
    records = json.loads(stdout.getvalue())["records"]
    p_ground = np.array([r["p_ground"] for r in records])
    entropy = np.array([r["entropy"] for r in records])
    assert np.all((p_ground >= -1e-12) & (p_ground <= 1.0 + 1e-12))
    assert np.all((entropy >= 0.0) & (entropy <= math.log(2.0)))


@pytest.mark.parametrize("n, t_steps", [(100_000_000_000, 501), (1_000_000_000, 2),
                                        (1 << 25, 2), (1 << 26, 1)])
def test_too_large_a_dynamics_table_exits_one_before_any_array(n, t_steps, monkeypatch,
                                                               capsys):
    def no_grid(*args, **kwargs):
        raise AssertionError("a time grid was built")

    monkeypatch.setattr(cli.np, "linspace", no_grid)
    assert run_cli("dynamics", "--n", str(n), "--t-steps", str(t_steps)) == 1
    assert capsys.readouterr().err.startswith(f"error: n = {n} and t_steps = {t_steps} ")


def test_a_dynamics_table_at_the_cell_cap_is_accepted(monkeypatch, capsys):
    # t_steps (n + 1) = 2^26 exactly; the probabilities are stubbed, so only
    # the two-point time grid is built
    monkeypatch.setattr(cli.dynamics, "ground_probability", lambda n, g, t: np.ones_like(t))
    n = cli.MAX_DYNAMICS_CELLS // 2 - 1
    assert len(_table("dynamics", "--n", str(n), "--t-steps", "2")) == 3
    assert capsys.readouterr().err == ""


def test_the_largest_gaussian_g_keeps_the_zero_frequency_row_at_one(capsys):
    # every oscillating term decays to 0 and the stationary key p = 0 stays 1,
    # not 0 * inf = nan: p = (1 + w_0) / 2 with w_0 = 2 / 2^N
    table = _table("tau-sweep", "--mode", "gaussian", "--g", repr(LARGEST_GAUSSIAN_G),
                   "--tau-steps", "2")
    for line in table[1:]:
        assert [float(cell) for cell in line.split(",")[1:]] == [2.0**-10, 0.5 + 2.0**-9,
                                                                 0.5 + 2.0**-10]
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "argv, key",
    [
        ("tau-sweep --eta-prep 1e-320", "eta_prep"),
        ("tau-sweep --eta-prep 1e-17", "eta_prep"),
        ("eta-sweep --eta-min 1e-320 --eta-max 1e-300", "eta_min"),
    ],
)
def test_an_efficiency_without_a_width_exits_one_naming_the_key(argv, key, capsys):
    # 1 - eta rounds to 1, so no finite width has this efficiency
    assert run_cli(*argv.split()) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key}: efficiency ") and err.endswith("rounds to 1\n")


@pytest.mark.parametrize(
    "argv, key",
    [
        ("tau-sweep --delta 1000", "delta"),
        ("tau-sweep --delta 1e300", "delta"),
        ("tau-sweep --delta 1.7976931348623157e308", "delta"),
        ("tau-sweep --n 2001 --delta 300", "delta"),
        ("tau-sweep --eta-prep 1e-7", "eta_prep"),
        ("eta-sweep --eta-min 1e-7", "eta_min"),
    ],
)
def test_too_wide_a_mixture_exits_one_before_it_is_built(argv, key, monkeypatch, capsys):
    def no_terms(self, extra=0):
        raise AssertionError("the mixture of a rejected width was built")

    monkeypatch.setattr(cli.preparation.PreparationModel, "terms", no_terms)
    assert run_cli(*argv.split()) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key}") and "delta = " in err
    assert f"above the limit of {cli.preparation.MAX_MIXTURE_KEYS}" in err


@pytest.mark.parametrize(
    "argv, target",
    [
        ("tau-sweep --n 99999999999999999999 --tau-steps 2", 99999999999999999999),
        ("tau-sweep --n 8388609 --eta-prep 1", 8388609),
    ],
)
def test_too_large_an_exact_state_exits_one_naming_n(argv, target, monkeypatch, capsys):
    def no_terms(self, extra=0):
        raise AssertionError("the terms of a rejected exact state were built")

    monkeypatch.setattr(cli.preparation.PreparationModel, "terms", no_terms)
    assert run_cli(*argv.split()) == 1
    err = capsys.readouterr().err
    assert err == (f"error: n = {target} puts {target // 2 + 1} keys p in the exact state, "
                   f"above the limit of {cli.preparation.MAX_MIXTURE_KEYS}\n")


@pytest.mark.parametrize("argv", ["tau-sweep --n 2097151 --tau-steps 2",
                                  "eta-sweep --n 2097151 --eta-min 1"])
def test_an_exact_state_rejected_through_its_partner_names_the_given_n(argv, capsys):
    # n itself holds 2^20 keys, its partner n + 1 one more
    assert run_cli(*argv.split()) == 1
    assert capsys.readouterr().err == (
        "error: n = 2097151: its partner n + 1 = 2097152 puts 1048577 keys p in the exact "
        "state, above the limit of 1048576\n")


@pytest.mark.parametrize("argv", ["eta-sweep --eta-steps 20 --eta-max 0.9",
                                  "eta-sweep --eta-steps 3 --eta-max 1",
                                  "tau-sweep --tau-steps 2 --eta-prep 0.5"])
def test_a_sweep_checks_the_exact_states_of_n_and_its_partner_once(argv, monkeypatch, capsys):
    # not once per efficiency: an exact target's own model checks itself
    # apart, under its own n
    seen = []
    check = cli.preparation._check_exact_state

    def counted(n_target, name=None):
        seen.append((n_target, name))
        check(n_target, name)

    monkeypatch.setattr(cli.preparation, "_check_exact_state", counted)
    assert run_cli(*argv.split()) == 0
    capsys.readouterr()
    assert seen[:2] == [(9, None), (10, "n = 9: its partner n + 1 = 10")]
    assert seen[2:] == ([(9, None), (10, None)] if "--eta-max 1" in argv else [])


def test_only_a_width_the_efficiency_sets_is_reported_under_eta_min(capsys):
    # n is rejected before the width that an efficiency sets
    assert run_cli("eta-sweep", "--n", "99999999999999999999", "--eta-steps", "2") == 1
    assert capsys.readouterr().err == (
        "error: n = 99999999999999999999 puts 50000000000000000000 keys p in the exact "
        "state, above the limit of 1048576\n")
    assert run_cli("eta-sweep", "--eta-min", "1e-7", "--eta-steps", "2") == 1
    assert capsys.readouterr().err == (
        "error: eta_min: delta = 2236.0679221865726 spreads the mixture around n = 9 over "
        "about 8.01e+07 keys p, above the limit of 1048576\n")


def _accepted_width(key: str, value: float, n: int) -> bool:
    """Whether the width given under key builds both targets n and n + 1:
    a finite positive delta, or an efficiency in (0, 1] whose 1 - eta is
    not 1, and a mixture within the key limit."""
    if key == "delta":
        if not 0.0 < value < math.inf:
            return False
        delta = value
    else:
        if not 0.0 < value <= 1.0 or 1.0 - value == 1.0:
            return False
        if value == 1.0:
            return True
        delta = cli.preparation.delta_from_efficiency(value)
    return cli.preparation._mixture_keys(n + 1, delta) <= cli.preparation.MAX_MIXTURE_KEYS


def _accepted(command: str, key: str, value) -> bool:
    """Whether one sweep setting, with every other one at its default, is
    accepted (exit 0 or 2) rather than rejected (exit 1)."""
    config = {**cli.DEFAULTS[command], key: value}
    if key == "mc_samples":
        return value >= 1
    if key in ("tau_min", "tau_max"):
        low, high = config["tau_min"], config["tau_max"]
        if not (0.0 < low <= high < math.inf):
            return False
        with np.errstate(over="ignore"):
            taus = np.logspace(np.log10(low), np.log10(high), 2)
        return bool(np.all((taus > 0.0) & (taus < math.inf)))
    if key in ("eta_min", "eta_max"):
        if not 0.0 < config["eta_min"] <= config["eta_max"] <= 1.0:
            return False
        return _accepted_width("eta_min", config["eta_min"], config["n"])
    return _accepted_width(key, value, config["n"])


@st.composite
def sweep_setting(draw):
    command = draw(st.sampled_from(["tau-sweep", "eta-sweep"]))
    floats = {"tau-sweep": ["delta", "eta_prep", "tau_max", "tau_min"],
              "eta-sweep": ["eta_max", "eta_min"]}[command]
    key = draw(st.sampled_from(floats + ["mc_samples"]))
    value = draw(st.integers() if key == "mc_samples" else st.floats())
    # Monte-Carlo draws are never allocated in the analytic modes
    return command, draw(st.sampled_from(["gamma", "gaussian"])), key, value


@settings(max_examples=100, deadline=None)
@given(samples=st.integers(min_value=1, max_value=512),
       seed=st.integers(min_value=0, max_value=2**64 - 1))
@example(samples=1, seed=0)
@example(samples=2, seed=0)
def test_monte_carlo_sweeps_take_any_sample_count(samples, seed):
    # every count from one draw up runs, and the same seed gives the same bytes
    for command, grid in (("tau-sweep", ["--tau-steps", "2"]),
                          ("eta-sweep", ["--eta-steps", "2", "--tau", "1e-8"])):
        tables = []
        for _ in range(2):
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = run_cli(command, *grid, "--mode", "mc", "--mc-samples", str(samples),
                               "--seed", str(seed))
            assert (code, stderr.getvalue()) == (0, "")
            tables.append(stdout.getvalue())
        assert tables[0] == tables[1]


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=sweep_setting())
@example(case=("tau-sweep", "gamma", "delta", 1e-200))
@example(case=("tau-sweep", "gamma", "delta", 1e300))
@example(case=("tau-sweep", "gamma", "eta_prep", 1e-320))
@example(case=("tau-sweep", "gaussian", "eta_prep", 1.0))
@example(case=("tau-sweep", "gamma", "tau_max", 1.7976931348623157e308))
@example(case=("tau-sweep", "gamma", "tau_min", 5e-324))
@example(case=("eta-sweep", "gamma", "eta_min", 1e-320))
@example(case=("eta-sweep", "gaussian", "eta_min", 1e-7))
@example(case=("eta-sweep", "gamma", "mc_samples", 10**30))
@example(case=("tau-sweep", "gamma", "mc_samples", 0))
def test_sweep_settings_are_accepted_or_rejected_by_name(case, tmp_path):
    # a bad value exits 1 naming its key; a good one exits 0 or 2; never a traceback
    command, mode, key, value = case
    steps = "--tau-steps" if command == "tau-sweep" else "--eta-steps"
    config = tmp_path / "run.json"
    config.write_text(json.dumps({key: value}))
    flag = f"--{key.replace('_', '-')}={value!r}"
    accepted = _accepted(command, key, value)
    for route in (["--config", str(config)], [flag]):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = run_cli(command, "--mode", mode, steps, "2", *route)
        assert "Traceback" not in stderr.getvalue()
        if accepted:
            assert code in (0, 2), stderr.getvalue()
        else:
            assert code == 1
            assert stderr.getvalue().startswith("error: ") and key in stderr.getvalue()
