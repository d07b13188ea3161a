from ionparity import checks


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
