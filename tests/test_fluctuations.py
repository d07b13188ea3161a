import numpy as np
import pytest

from ionparity import (
    FluctuationModel,
    averaged_cosine,
    averaged_ground_probability,
    gamma_kernel,
    gaussian_kernel,
    ground_probability,
    monte_carlo_cosine,
    parity_delta,
)
from ionparity import fluctuations
from ionparity.fluctuations import sample_pulse_areas

# frozen from independent brute-force evaluation at the comparison instant
DP_IDEAL = 0.46643011580647897
T_COMPARE = 17.0 * np.pi / 8.0 / 1e5


def test_model_validation():
    for bad_g in (0.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="g_mean"):
            FluctuationModel(g_mean=bad_g, tau=1e-8)
    for bad_tau in (-1e-9, np.inf, np.nan):
        with pytest.raises(ValueError, match="tau"):
            FluctuationModel(g_mean=1.0, tau=bad_tau)
    with pytest.raises(ValueError, match="mode"):
        FluctuationModel(g_mean=1.0, tau=1e-8, mode="exact")
    with pytest.raises(ValueError, match="mc_samples"):
        FluctuationModel(g_mean=1.0, tau=1e-8, mc_samples=0)


def test_zero_fluctuation_limit_every_mode():
    for mode in ("gamma_exact", "gaussian_approx", "monte_carlo"):
        model = FluctuationModel(g_mean=2.0, tau=0.0, mode=mode)
        for t in (0.3, 1.0, 4.7):
            assert averaged_cosine(1.3, t, model) == pytest.approx(
                np.cos(1.3 * 2.0 * t), abs=1e-15
            )


def test_zero_frequency_is_unity():
    for mode in ("gamma_exact", "gaussian_approx", "monte_carlo"):
        model = FluctuationModel(g_mean=2.0, tau=0.01, mode=mode, mc_samples=500)
        assert averaged_cosine(0.0, 1.0, model) == pytest.approx(1.0, abs=1e-15)


def test_gaussian_kernel_spot_value():
    model = FluctuationModel(g_mean=1.0, tau=0.01, mode="gaussian_approx")
    expected = np.cos(4.0) * np.exp(-0.08)
    assert averaged_cosine(4.0, 1.0, model) == pytest.approx(expected, abs=1e-15)


def test_nonpositive_time_rejected():
    model = FluctuationModel(g_mean=1.0, tau=0.01)
    for bad_t in (0.0, -1.0):
        with pytest.raises(ValueError):
            averaged_cosine(1.0, bad_t, model)
        with pytest.raises(ValueError):
            averaged_ground_probability(5, model, bad_t)


def test_monte_carlo_matches_gamma_within_errors():
    rng_grid = [(0.5, 1e-3), (2.0, 1e-3), (4.0, 1e-2), (8.0, 3e-3)]
    for omega, tau in rng_grid:
        model = FluctuationModel(
            g_mean=1.0, tau=tau, mode="monte_carlo", mc_samples=100_000, seed=42
        )
        estimate = monte_carlo_cosine(omega, 1.0, model)
        exact = gamma_kernel(omega, 1.0, tau, 1.0)
        assert abs(estimate.mean - exact) <= 3.0 * estimate.standard_error


def test_monte_carlo_deterministic_for_fixed_seed():
    model = FluctuationModel(g_mean=1.0, tau=1e-3, mode="monte_carlo", mc_samples=5000, seed=9)
    first = monte_carlo_cosine(3.0, 1.0, model)
    second = monte_carlo_cosine(3.0, 1.0, model)
    assert first.mean == second.mean
    assert first.standard_error == second.standard_error


def test_monte_carlo_blocks_match_one_outer_product():
    # 31 frequencies x 5e4 draws exceed the block cap; blocks of 20 and 11 rows
    samples = 50_000
    omegas, weights = fluctuations._area_frequencies(30)
    assert omegas.size * samples > fluctuations.MC_BLOCK_PAIRS
    assert omegas.size % (fluctuations.MC_BLOCK_PAIRS // samples) != 0
    model = FluctuationModel(g_mean=1.0, tau=1e-3, mode="monte_carlo", mc_samples=samples, seed=5)
    draws = sample_pulse_areas(1.0, 1e-3, 1.0, np.random.default_rng(5), samples)
    full = np.cos(np.multiply.outer(omegas, draws)).mean(axis=1)
    assert np.array_equal(fluctuations._kernels(omegas, model, 1.0, None), full)
    assert averaged_ground_probability(30, model, 1.0) == float(0.5 * (1.0 + weights @ full))


def test_gamma_gaussian_agree_in_regime():
    # shape t/tau >= 1e3 with a small area-step omega*g*tau
    g = 1e5
    for omega in (0.5, 2.0, 8.0):
        for tau in (1e-10, 1e-9):
            for shape in (1e3, 1e5):
                t = shape * tau
                envelope = (1.0 + (omega * g * tau) ** 2) ** (-t / (2.0 * tau))
                err = abs(gamma_kernel(omega, g, tau, t) - gaussian_kernel(omega, g, tau, t))
                assert err <= 0.01 * envelope


def test_averaged_probability_zero_tau_degenerates():
    model = FluctuationModel(g_mean=1.0, tau=0.0)
    for t in np.linspace(0.05, 9.0, 30):
        assert averaged_ground_probability(9, model, float(t)) == pytest.approx(
            ground_probability(9, 1.0, float(t)), abs=1e-12
        )


def test_long_time_limit_only_stationary_terms_survive():
    # N = 9: the two edge amplitudes never oscillate, everything else decays
    model = FluctuationModel(g_mean=1.0, tau=0.1, mode="gaussian_approx")
    assert averaged_ground_probability(9, model, 1e4) == pytest.approx(
        0.5 * (1.0 + 2.0 / 512.0), abs=1e-12
    )
    exact = FluctuationModel(g_mean=1.0, tau=0.1, mode="gamma_exact")
    assert averaged_ground_probability(9, exact, 1e4) == pytest.approx(
        0.5 * (1.0 + 2.0 / 512.0), abs=1e-12
    )


def test_parity_delta_ideal_value():
    model = FluctuationModel(g_mean=1e5, tau=0.0)
    value = parity_delta(9, model, T_COMPARE)
    assert value == pytest.approx(DP_IDEAL, abs=1e-12)
    assert 0.4 <= value <= 0.5


def test_parity_delta_decoherent_limit():
    model = FluctuationModel(g_mean=1e5, tau=1.0)
    assert parity_delta(9, model, T_COMPARE) == pytest.approx(1.0 / 1024.0, abs=1e-9)


def test_parity_delta_monotone_in_tau():
    values = []
    for tau in np.logspace(-9, -7, 25):
        model = FluctuationModel(g_mean=1e5, tau=float(tau))
        values.append(parity_delta(9, model, T_COMPARE))
    assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))


def test_parity_delta_rejects_even_or_small_n():
    model = FluctuationModel(g_mean=1e5, tau=1e-8)
    with pytest.raises(ValueError):
        parity_delta(10, model, T_COMPARE)
    with pytest.raises(ValueError):
        parity_delta(1, model, T_COMPARE)


def test_averaged_probability_modes_consistent():
    # at mild decoherence the three kernels agree to Monte-Carlo accuracy
    t = T_COMPARE
    gauss = averaged_ground_probability(9, FluctuationModel(1e5, 1e-9), t)
    gamma = averaged_ground_probability(
        9, FluctuationModel(1e5, 1e-9, mode="gamma_exact"), t
    )
    mc = averaged_ground_probability(
        9, FluctuationModel(1e5, 1e-9, mode="monte_carlo", mc_samples=200_000, seed=1), t
    )
    assert gauss == pytest.approx(gamma, abs=2e-4)
    assert mc == pytest.approx(gamma, abs=5e-3)


def test_sample_pulse_areas_moments_and_determinism():
    g, tau, t, n = 1.0, 0.01, 1.0, 200_000
    draws = sample_pulse_areas(g, tau, t, np.random.default_rng(6), n)
    mean_se = np.sqrt(g * g * t * tau / n)
    assert abs(draws.mean() - g * t) <= 3.0 * mean_se
    var_se = g * g * t * tau * np.sqrt(2.0 / (n - 1))
    assert abs(draws.var(ddof=1) - g * g * t * tau) <= 3.0 * var_se
    again = sample_pulse_areas(g, tau, t, np.random.default_rng(6), n)
    assert np.array_equal(draws, again)


def test_sample_pulse_areas_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        sample_pulse_areas(1.0, 0.0, 1.0, rng, 10)
    with pytest.raises(ValueError):
        sample_pulse_areas(1.0, 0.01, 0.0, rng, 10)
    with pytest.raises(ValueError):
        sample_pulse_areas(1.0, 0.01, 1.0, rng, 0)
