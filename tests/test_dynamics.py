import numpy as np
import pytest

from ionparity import (
    binary_entropy,
    evolve_closed_form,
    ground_probability,
    parity_times,
    rabi_spectrum,
    symmetric_binomial_amplitudes,
    vibrational_entropy,
    von_neumann_entropy,
)
from ionparity.dynamics import _closed_form_grids

LN2 = np.log(2.0)

# Largest N whose first amplitude 2^(-N/2) is a normal float: up to it the
# amplitudes are the running product from P_0, past it they run from the centre.
LAST_EDGE_START_N = max(n for n in range(4096) if 2.0 ** (-n / 2.0) >= np.finfo(float).tiny)

# values frozen from independent brute-force evaluation of the closed forms
C9_AT_COMPARISON = 0.98359030620125232
C10_AT_COMPARISON = 0.51716019039477334
C9_AT_REVIVAL = 0.91331527343215313
C10_AT_ENTANGLE = 0.57282573168473583


def test_su2_single_quantum_is_balanced():
    # the tau = 1 spin-coherent state of j = 1/2
    assert symmetric_binomial_amplitudes(1) == pytest.approx([1 / np.sqrt(2)] * 2, abs=1e-15)


def test_su2_unit_tau_binomial_weights():
    weights = symmetric_binomial_amplitudes(4) ** 2
    assert weights == pytest.approx(np.array([1, 4, 6, 4, 1]) / 16.0, abs=1e-15)


def test_binomial_amplitudes_large_n_stable():
    amps = symmetric_binomial_amplitudes(400)
    assert np.all(np.isfinite(amps))
    assert np.sum(amps**2) == pytest.approx(1.0, abs=1e-12)


def exact_binomial_weights(n_total):
    """2^-N C(N, k) from exact integers, each quotient correctly rounded."""
    weights, binomial, scale = [], 1, 2**n_total
    for k in range(n_total + 1):
        weights.append(binomial / scale)
        binomial = binomial * (n_total - k) // (k + 1)
    return np.array(weights)


@pytest.mark.parametrize(
    "n_total", [LAST_EDGE_START_N, LAST_EDGE_START_N + 1, 2148, 3000, 10_000]
)
def test_binomial_weights_match_exact_integers(n_total):
    # past LAST_EDGE_START_N the product from 2^(-N/2) lost bits, then underflowed
    weights = symmetric_binomial_amplitudes(n_total) ** 2
    exact = exact_binomial_weights(n_total)
    assert weights.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.abs(weights - exact).sum() < 1e-14
    resolved = exact > 1e-250
    assert np.max(np.abs(weights[resolved] / exact[resolved] - 1.0)) < 1e-13


def test_binomial_amplitudes_keep_the_product_from_the_edge():
    # up to the switch the amplitudes are the plain running product from P_0
    assert LAST_EDGE_START_N == 2044
    for n_total in (0, 1, 9, 10, 400, LAST_EDGE_START_N):
        amps = [2.0 ** (-n_total / 2.0)]
        for k in range(1, n_total + 1):
            amps.append(amps[-1] * np.sqrt((n_total - k + 1) / k))
        assert np.array_equal(symmetric_binomial_amplitudes(n_total), amps)


def test_rabi_spectrum_structure():
    for n in range(1, 21):
        spec = rabi_spectrum(n, 1.3)
        assert spec.frequencies[0] == 0.0
        assert spec.frequencies[-1] == 0.0
        assert np.array_equal(spec.frequencies, spec.frequencies[::-1])
        assert np.sum(spec.weights) == pytest.approx(1.0, abs=1e-12)


def test_initial_condition():
    state = evolve_closed_form(9, 1.0, 0.0)
    assert state.plus_component.squared_norm() == 0.0
    k = np.arange(10)
    weights = np.zeros((10, 10))
    weights[9 - k, k] = exact_binomial_weights(9)
    assert np.allclose(np.abs(state.minus_component.amplitudes) ** 2, weights, atol=1e-15)
    assert np.all(state.minus_component.amplitudes[9 - k, k].real > 0.0)


@pytest.mark.parametrize("n_total", [0, 1, 2, 9, 20])
def test_stacked_grids_equal_single_time_states(n_total):
    rng = np.random.default_rng(n_total)
    times = np.concatenate(([0.0], rng.uniform(0.0, 12.0, size=25)))
    minus, plus = _closed_form_grids(n_total, 1.3, times)
    assert minus.shape == plus.shape == (len(times), n_total + 1, n_total + 1)
    for t, m, p in zip(times, minus, plus):
        state = evolve_closed_form(n_total, 1.3, float(t))
        assert np.array_equal(m, state.minus_component.amplitudes)
        assert np.array_equal(p, state.plus_component.amplitudes)
    assert not plus[0].any()


def test_two_quanta_ground_population_formula():
    # closed form for N=2 collapses to 3/4 + cos(4 g t)/4
    g = 1.7
    for t in np.linspace(0.0, 3.0, 41):
        expected = 0.75 + 0.25 * np.cos(4.0 * g * t)
        state = evolve_closed_form(2, g, t)
        assert state.minus_component.squared_norm() == pytest.approx(expected, abs=1e-14)
        assert ground_probability(2, g, t) == pytest.approx(expected, abs=1e-14)


def test_norm_conserved_for_all_n():
    rng = np.random.default_rng(11)
    for n in range(0, 21):
        for t in rng.uniform(0.0, 15.0, size=20):
            state = evolve_closed_form(n, 1.0, float(t))
            assert abs(state.total_squared_norm() - 1.0) <= 1e-12


def test_ground_probability_time_array_matches_scalars():
    times = np.linspace(0.0, 5.0, 17)
    vector = ground_probability(7, 2.0, times)
    for t, value in zip(times, vector):
        assert value == pytest.approx(ground_probability(7, 2.0, float(t)), abs=1e-15)


def test_ground_probability_special_points():
    assert ground_probability(9, 1e5, 0.0) == 1.0
    assert ground_probability(2, 1.0, np.pi / 4.0) == pytest.approx(0.5, abs=1e-14)
    # stationary single-quantum pair: both oscillation rates vanish
    assert ground_probability(1, 1.0, 0.83) == pytest.approx(1.0, abs=1e-15)


def test_even_n_probability_near_half_at_entangle_time():
    times = parity_times(10, 1.0)
    value = ground_probability(10, 1.0, times.entangle_time)
    assert value == pytest.approx(C10_AT_ENTANGLE, abs=1e-12)
    assert abs(value - 0.5) <= 0.08


def test_periodicity_two_quanta():
    rng = np.random.default_rng(3)
    g = 1.0
    for t in rng.uniform(0.0, 10.0, size=25):
        assert ground_probability(2, g, float(t)) == pytest.approx(
            ground_probability(2, g, float(t) + np.pi / (2.0 * g)), abs=1e-12
        )


def test_entropy_limits():
    assert vibrational_entropy(9, 1.0, 0.0) == 0.0
    assert binary_entropy(0.5) == pytest.approx(LN2, abs=1e-15)
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0


def test_entropy_maximal_near_even_entangle_time():
    times = parity_times(10, 1.0)
    assert vibrational_entropy(10, 1.0, times.entangle_time) >= 0.95 * LN2


def test_von_neumann_entropy_of_a_stack_matches_each_matrix():
    rng = np.random.default_rng(11)
    vectors = rng.normal(size=(6, 3, 2)) + 1j * rng.normal(size=(6, 3, 2))
    stack = np.einsum("sia,sja->sij", vectors, vectors.conj())
    stack /= np.trace(stack, axis1=1, axis2=2)[:, None, None]
    stack[0] = np.diag([1.0, 0.0, 0.0])  # zero eigenvalues add nothing
    entropies = von_neumann_entropy(stack)
    assert entropies.shape == (6,)
    assert entropies[0] == 0.0
    for rho, entropy in zip(stack, entropies):
        single = von_neumann_entropy(rho)
        assert isinstance(single, float)
        assert single == entropy


def test_parity_times_odd():
    times = parity_times(9, 1.0)
    assert times.revival_time == pytest.approx(2.0 * np.pi, abs=1e-14)
    assert times.entangle_time == pytest.approx(2.5 * np.pi, abs=1e-14)
    # comparison instant: midpoint of pi(N-1)/4g and pi N/4g
    assert times.comparison_time == pytest.approx(17.0 * np.pi / 8.0, abs=1e-14)


def test_parity_times_even():
    times = parity_times(10, 1.0)
    assert times.entangle_time == pytest.approx(2.5 * np.pi, abs=1e-14)
    assert times.revival_time is None
    assert times.comparison_time is None
    with pytest.raises(ValueError):
        parity_times(1, 1.0)


def test_parity_revival_sign():
    # at the revival instant the nine-quanta run returns near the ground level
    times = parity_times(9, 1.0)
    value = ground_probability(9, 1.0, times.revival_time)
    assert value == pytest.approx(C9_AT_REVIVAL, abs=1e-12)
    assert value >= 0.9


def test_comparison_instant_values():
    times = parity_times(9, 1.0)
    assert ground_probability(9, 1.0, times.comparison_time) == pytest.approx(
        C9_AT_COMPARISON, abs=1e-12
    )
    assert ground_probability(10, 1.0, times.comparison_time) == pytest.approx(
        C10_AT_COMPARISON, abs=1e-12
    )


def test_negative_time_rejected():
    with pytest.raises(ValueError):
        evolve_closed_form(3, 1.0, -0.1)
    with pytest.raises(ValueError):
        ground_probability(3, 1.0, -0.1)
