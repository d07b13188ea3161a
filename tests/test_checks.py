import math

from ionparity import checks, dynamics


def test_default_battery_passes():
    results = checks.run_all(seed=0)
    failed = [r for r in results if not r.passed]
    assert not failed, [f"{r.name}: {r.measured} > {r.bound}" for r in failed]


def test_battery_covers_every_suite():
    names = {r.name for r in checks.run_all(seed=0)}
    assert {
        "closed_form_vs_propagator_probability",
        "closed_form_vs_propagator_state",
        "norm_conservation",
        "entropy_matches_reduced_density",
        "gamma_vs_gaussian",
        "monte_carlo_vs_gamma",
        "mixture_linearity",
        "static_drive_limit",
        "rwa_deviation_decreases",
    } <= names


def test_monte_carlo_check_detects_wrong_kernel():
    # deliberately fault the closed kernel: flipped decay sign
    def sign_flipped(omega, g, tau, t):
        x = omega * g * tau
        import numpy as np

        return float(
            np.exp(+(t / (2.0 * tau)) * np.log1p(x * x)) * np.cos((t / tau) * np.arctan(x))
        )

    result = checks.monte_carlo_vs_gamma(seed=0, n_samples=20_000, kernel=sign_flipped)
    assert not result.passed


def test_unitarity_check_reports_period_map_defect():
    result = checks.lamb_dicke_unitarity()
    assert result.passed
    assert result.detail.startswith("one-period map max|M^dag M - I| = ")
    assert 0.0 < float(result.detail.rsplit("= ", 1)[1]) <= 1e-10


def test_drive_checks_fail_when_the_propagator_gives_up(monkeypatch):
    # at eta_ld = 0.99 the RK4 norm drift exceeds what the propagator accepts
    result = checks.rwa_deviation_decreases(eta_ld=0.99)
    assert (result.measured, result.passed) == (math.inf, False)
    assert result.detail.startswith("norm drift ")

    def drifting(*args, **kwargs):
        raise RuntimeError("norm drift 2.000e-08 exceeds 1e-08")

    monkeypatch.setattr(checks.propagators, "propagate_lamb_dicke", drifting)
    result = checks.lamb_dicke_unitarity()
    assert (result.measured, result.passed) == (math.inf, False)
    assert result.detail == "norm drift 2.000e-08 exceeds 1e-08"


def test_batched_checks_detect_a_faulted_closed_form(monkeypatch):
    # one |-> amplitude of the closed form off by 1e-6 at every time
    original = dynamics._closed_form_grids

    def faulted(n_total, g, times, cutoff_a, cutoff_b):
        minus, plus = original(n_total, g, times, cutoff_a, cutoff_b)
        minus[:, n_total, 0] += 1e-6
        return minus, plus

    monkeypatch.setattr(dynamics, "_closed_form_grids", faulted)
    state = {r.name: r for r in checks.closed_form_vs_propagator(seed=0)}
    assert not state["closed_form_vs_propagator_state"].passed
    assert not checks.norm_conservation(seed=0).passed
    assert not checks.entropy_matches_reduced_density(seed=0).passed


def test_entropy_check_reads_the_off_diagonal_coherence(monkeypatch):
    # moving a |+> amplitude onto a cell that |-> also occupies keeps both
    # populations, so only <+|-> can tell the state from the closed form
    original = dynamics._closed_form_grids

    def coherent(n_total, g, times, cutoff_a, cutoff_b):
        minus, plus = original(n_total, g, times, cutoff_a, cutoff_b)
        plus[:, n_total - 1, 1] = plus[:, n_total - 2, 0]
        plus[:, n_total - 2, 0] = 0.0
        return minus, plus

    monkeypatch.setattr(dynamics, "_closed_form_grids", coherent)
    assert not checks.entropy_matches_reduced_density(seed=0).passed



def test_closed_form_checks_see_a_wrong_binomial_amplitude(monkeypatch):
    # the propagator's initial state must not be built by the magnitude
    # routine the closed form reads, or a wrong amplitude would pass unseen
    original = dynamics._su2_magnitudes

    def shifted(*args):
        magnitudes = original(*args).copy()
        magnitudes[1] += 1e-6
        return magnitudes

    monkeypatch.setattr(dynamics, "_su2_magnitudes", shifted)
    failed = [r.name for r in checks.closed_form_vs_propagator(seed=0) if not r.passed]
    assert failed == ["closed_form_vs_propagator_probability", "closed_form_vs_propagator_state"]
