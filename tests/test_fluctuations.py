import math
import tracemalloc

import numpy as np
import pytest

from ionparity import (
    FluctuationModel,
    averaged_ground_probability,
    gamma_kernel,
    gaussian_kernel,
    ground_probability,
    mixture_ground_probabilities,
    monte_carlo_cosine,
    parity_delta_mixed,
    rabi_spectrum,
)
from ionparity import fluctuations
from ionparity.fluctuations import sample_pulse_areas

# frozen from independent brute-force evaluation at the comparison instant
DP_IDEAL = 0.46643011580647897
T_COMPARE = 17.0 * np.pi / 8.0 / 1e5


def kernel_at(omega, t, model, rng=None):
    """E[cos(omega A)] at one frequency through the kernel dispatch."""
    return float(fluctuations._kernels(np.array([omega], dtype=float), model, t, rng)[0])


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
    # the Gaussian exponent holds g**2; the other kernels take any finite g
    with pytest.raises(ValueError, match=r"g = 1e\+200 is too large for gaussian_approx"):
        FluctuationModel(g_mean=1e200, tau=1e-8, mode="gaussian_approx")
    for mode in ("gamma_exact", "monte_carlo"):
        FluctuationModel(g_mean=1e200, tau=1e-8, mode=mode)


def test_zero_fluctuation_limit_every_mode():
    for mode in ("gamma_exact", "gaussian_approx", "monte_carlo"):
        model = FluctuationModel(g_mean=2.0, tau=0.0, mode=mode)
        for t in (0.3, 1.0, 4.7):
            assert kernel_at(1.3, t, model) == pytest.approx(
                np.cos(1.3 * 2.0 * t), abs=1e-15
            )


def test_zero_frequency_is_unity():
    for mode in ("gamma_exact", "gaussian_approx", "monte_carlo"):
        model = FluctuationModel(g_mean=2.0, tau=0.01, mode=mode, mc_samples=500)
        assert kernel_at(0.0, 1.0, model) == pytest.approx(1.0, abs=1e-15)


def test_gaussian_kernel_spot_value():
    model = FluctuationModel(g_mean=1.0, tau=0.01, mode="gaussian_approx")
    expected = np.cos(4.0) * np.exp(-0.08)
    assert kernel_at(4.0, 1.0, model) == pytest.approx(expected, abs=1e-15)


def test_nonpositive_time_rejected():
    model = FluctuationModel(g_mean=1.0, tau=0.01)
    for bad_t in (0.0, -1.0):
        with pytest.raises(ValueError):
            kernel_at(1.0, bad_t, model)
        with pytest.raises(ValueError):
            averaged_ground_probability(5, model, bad_t)


def test_monte_carlo_matches_gamma_within_errors():
    rng_grid = [(0.5, 1e-3), (2.0, 1e-3), (4.0, 1e-2), (8.0, 3e-3)]
    for omega, tau in rng_grid:
        model = FluctuationModel(
            g_mean=1.0, tau=tau, mode="monte_carlo", mc_samples=100_000, seed=42
        )
        mean, stderr = monte_carlo_cosine(omega, 1.0, model)
        exact = gamma_kernel(omega, 1.0, tau, 1.0)
        assert abs(mean - exact) <= 3.0 * stderr


def test_monte_carlo_deterministic_for_fixed_seed():
    model = FluctuationModel(g_mean=1.0, tau=1e-3, mode="monte_carlo", mc_samples=5000, seed=9)
    assert monte_carlo_cosine(3.0, 1.0, model) == monte_carlo_cosine(3.0, 1.0, model)


def test_monte_carlo_cosine_reads_the_sweeps_sampler():
    # the mean is the kernel row the sweeps get for the same seed, bit for
    # bit, and the error from the 2 omega row is the explicit draws' sample
    # standard deviation over sqrt(n); an analytic model is sampled alike
    samples = 5000
    model = FluctuationModel(g_mean=1.0, tau=1e-2, mode="monte_carlo", mc_samples=samples, seed=9)
    mean, stderr = estimate = monte_carlo_cosine(3.0, 1.0, model)
    assert mean == kernel_at(3.0, 1.0, model)
    values = np.cos(3.0 * sample_pulse_areas(1.0, 1e-2, 1.0, np.random.default_rng(9), samples))
    assert mean == pytest.approx(values.mean(), rel=1e-13)
    assert stderr == pytest.approx(values.std(ddof=1) / math.sqrt(samples), rel=1e-9)
    assert monte_carlo_cosine(3.0, 1.0, FluctuationModel(1.0, 1e-2, mc_samples=samples,
                                                         seed=9)) == estimate


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("tau", [0.0, 5e-324, 1.7e308])
def test_monte_carlo_cosine_of_a_deterministic_area_has_no_error(tau):
    # tau = 0 or a shape t/tau that overflows: the area is g t; a scale g tau
    # that overflows: the exact law's tau -> inf limit 1, drawn from nowhere
    model = FluctuationModel(g_mean=1e5, tau=tau, mode="monte_carlo", mc_samples=100)
    mean, stderr = monte_carlo_cosine(3.0, T_COMPARE, model)
    limit = 1.0 if tau > 1.0 else np.cos(3.0 * 1e5 * T_COMPARE)
    assert mean == pytest.approx(limit, abs=1e-15)
    assert stderr == 0.0


def test_monte_carlo_blocks_match_one_outer_product():
    # N = 62 has 32 distinct keys, 31 of them non-zero; 31 x 5e4 draws exceed
    # the tile cap, in six tiles of 5 rows and one of 1.  5e4 draws fit in one
    # draw block, so every row keeps the summation order of the full product.
    samples = 50_000
    _, omegas, weights = fluctuations._area_terms(62)
    assert samples <= fluctuations.MC_DRAW_BLOCK
    assert (omegas.size - 1) * samples > fluctuations.MC_BLOCK_PAIRS
    assert (omegas.size - 1) % (fluctuations.MC_BLOCK_PAIRS // samples) != 0
    model = FluctuationModel(g_mean=1.0, tau=1e-3, mode="monte_carlo", mc_samples=samples, seed=5)
    draws = sample_pulse_areas(1.0, 1e-3, 1.0, np.random.default_rng(5), samples)
    full = np.cos(np.multiply.outer(omegas, draws)).mean(axis=1)
    assert np.array_equal(fluctuations._kernels(omegas, model, 1.0, None), full)
    assert averaged_ground_probability(62, model, 1.0) == float(0.5 * (1.0 + weights @ full))


@pytest.mark.parametrize("shape", [0.3, 1.0, 2.5])
def test_blocked_draws_equal_one_call(shape):
    # the kernel streams its areas in blocks; the stream may not depend on them
    size, block = 2 * fluctuations.MC_DRAW_BLOCK + 17, fluctuations.MC_DRAW_BLOCK
    one = sample_pulse_areas(1.0, 0.5, 0.5 * shape, np.random.default_rng(3), size)
    rng = np.random.default_rng(3)
    blocks = [sample_pulse_areas(1.0, 0.5, 0.5 * shape, rng, min(block, size - start))
              for start in range(0, size, block)]
    assert np.array_equal(np.concatenate(blocks), one)


def test_streamed_kernel_matches_one_outer_product_to_rounding():
    # Four draw blocks, the last of 17 draws; N = 30 has 15 non-zero keys, so
    # every block needs four tiles of rows.
    samples = 3 * fluctuations.MC_DRAW_BLOCK + 17
    _, omegas, _ = fluctuations._area_terms(30)
    assert omegas.size - 1 > fluctuations.MC_BLOCK_PAIRS // fluctuations.MC_DRAW_BLOCK
    model = FluctuationModel(g_mean=1.0, tau=1e-3, mode="monte_carlo", mc_samples=samples, seed=2)
    streamed = fluctuations._kernels(omegas, model, 1.0)
    draws = sample_pulse_areas(1.0, 1e-3, 1.0, np.random.default_rng(2), samples)
    full = np.cos(np.multiply.outer(omegas, draws)).mean(axis=1)
    # Both sides sum the same n cosines, each of magnitude at most 1, in two
    # different trees.  A tree of height h sums them to within h u n (u the
    # unit roundoff, first order).  numpy's pairwise sum adds at most 128
    # terms in sequence, then halves: h <= 128 + log2(n).  The stream sums
    # each block that way and adds its 4 block sums in sequence:
    # h <= 128 + log2(MC_DRAW_BLOCK) + 4.  Dividing by n adds one rounding
    # of a mean of magnitude at most 1 on each side.
    u = np.finfo(float).eps / 2.0
    bound = u * (2 * 128 + np.log2(samples) + np.log2(fluctuations.MC_DRAW_BLOCK) + 4 + 2)
    assert np.max(np.abs(streamed - full)) <= bound
    assert omegas[0] == 0.0 and streamed[0] == 1.0


def test_monte_carlo_memory_does_not_grow_with_the_sample_count():
    # 4 non-zero keys fill one whole tile of rows per draw block
    _, omegas, _ = fluctuations._area_terms(9)
    assert omegas.size - 1 == fluctuations.MC_BLOCK_PAIRS // fluctuations.MC_DRAW_BLOCK

    def peak(samples):
        model = FluctuationModel(1e5, 1e-8, "monte_carlo", mc_samples=samples, seed=1)
        tracemalloc.start()
        try:
            fluctuations._kernels(omegas, model, T_COMPARE)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1 << 10)  # first-call allocations of numpy's random module
    small, large = peak(1 << 18), peak(1 << 22)
    assert abs(large - small) <= 0.1 * small
    # one tile and two draw blocks (the next block is drawn while the last is
    # still bound), plus 64 KiB for the per-row arrays
    limit = 8 * (fluctuations.MC_BLOCK_PAIRS + 2 * fluctuations.MC_DRAW_BLOCK) + (1 << 16)
    assert large <= limit


@pytest.mark.parametrize("n_total", [1, 2, 9, 10, 30])
def test_area_terms_merge_the_plain_k_loop(n_total):
    spec = rabi_spectrum(n_total, 1.0)
    merged, omega_of = {}, {}
    for k in range(n_total + 1):
        p = (n_total - k) * k
        merged[p] = merged.get(p, 0.0) + spec.weights[k]
        omega_of[p] = 2.0 * spec.frequencies[k]
    keys, omegas, weights = fluctuations._area_terms(n_total)
    assert keys.tolist() == sorted(merged)  # distinct and ascending
    assert keys.size == n_total // 2 + 1  # k and N - k share one key
    assert np.array_equal(omegas, [omega_of[p] for p in sorted(merged)])
    assert weights == pytest.approx([merged[p] for p in sorted(merged)], abs=1e-15)
    assert weights.sum() == pytest.approx(1.0, abs=1e-15)
    assert not (keys.flags.writeable or omegas.flags.writeable or weights.flags.writeable)


@pytest.mark.parametrize("mode", fluctuations.MODES)
def test_joint_call_matches_separate_calls(mode):
    model = FluctuationModel(g_mean=1e5, tau=1e-8, mode=mode, mc_samples=20_000, seed=4)
    odd = ((8, 9, 10), (0.25, 0.5, 0.25))
    even = ((9, 10, 11), (0.25, 0.5, 0.25))
    joint = mixture_ground_probabilities((odd, even), model, T_COMPARE)
    for mixture, value in zip((odd, even), joint):
        assert value == pytest.approx(
            mixture_ground_probabilities((mixture,), model, T_COMPARE)[0], abs=1e-15
        )


def test_monte_carlo_merged_row_equals_unmerged_row():
    # every k of N = 9 gets the row of its key p = (N-k)k, bit for bit
    model = FluctuationModel(g_mean=1.0, tau=1e-3, mode="monte_carlo", mc_samples=5000, seed=8)
    unmerged = fluctuations._kernels(2.0 * rabi_spectrum(9, 1.0).frequencies, model, 1.0, None)
    keys, omegas, _ = fluctuations._area_terms(9)
    merged = fluctuations._kernels(omegas, model, 1.0, None)
    k = np.arange(10)
    assert np.array_equal(merged[np.searchsorted(keys, (9 - k) * k)], unmerged)


def test_zero_weight_term_never_enters_the_cache():
    model = FluctuationModel(g_mean=1e5, tau=1e-8, mode="gamma_exact")
    fluctuations._area_terms.cache_clear()
    (with_tail,) = mixture_ground_probabilities((((9, 10, 2001), (0.5, 0.5, 0.0)),), model,
                                                T_COMPARE)
    assert fluctuations._area_terms.cache_info().currsize == 2
    (without,) = mixture_ground_probabilities((((9, 10), (0.5, 0.5)),), model, T_COMPARE)
    assert with_tail == pytest.approx(without, abs=1e-15)
    with pytest.raises(ValueError, match="non-zero weight"):
        mixture_ground_probabilities((((2001,), (0.0,)),), model, T_COMPARE)


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
    value = parity_delta_mixed(9, None, model, T_COMPARE)
    assert value == pytest.approx(DP_IDEAL, abs=1e-12)
    assert 0.4 <= value <= 0.5


def test_parity_delta_decoherent_limit():
    model = FluctuationModel(g_mean=1e5, tau=1.0)
    assert parity_delta_mixed(9, None, model, T_COMPARE) == pytest.approx(
        1.0 / 1024.0, abs=1e-9
    )


def test_parity_delta_monotone_in_tau():
    values = []
    for tau in np.logspace(-9, -7, 25):
        model = FluctuationModel(g_mean=1e5, tau=float(tau))
        values.append(parity_delta_mixed(9, None, model, T_COMPARE))
    assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))


def test_parity_delta_draws_once_from_explicit_rng():
    # both targets share one set of areas drawn from the given generator
    model = FluctuationModel(g_mean=1e5, tau=1e-8, mode="monte_carlo", mc_samples=4000)
    rng = np.random.default_rng(21)
    upper_joint, lower_joint = mixture_ground_probabilities(
        (((9,), (1.0,)), ((10,), (1.0,))), model, T_COMPARE, rng
    )
    value = upper_joint - lower_joint
    upper = averaged_ground_probability(9, model, T_COMPARE, np.random.default_rng(21))
    lower = averaged_ground_probability(10, model, T_COMPARE, np.random.default_rng(21))
    assert value == pytest.approx(upper - lower, abs=1e-15)
    once = np.random.default_rng(21)
    sample_pulse_areas(1e5, 1e-8, T_COMPARE, once, 4000)
    assert rng.random() == once.random()


def test_parity_delta_rejects_even_or_small_n():
    model = FluctuationModel(g_mean=1e5, tau=1e-8)
    with pytest.raises(ValueError):
        parity_delta_mixed(10, None, model, T_COMPARE)
    with pytest.raises(ValueError):
        parity_delta_mixed(1, None, model, T_COMPARE)


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


@pytest.mark.parametrize("mode", ["gamma_exact", "gaussian_approx"])
def test_tau_column_rows_equal_scalar_calls(mode):
    _, omegas, _ = fluctuations._area_terms(30)
    taus = [1e-10, 3e-9, 1e-8, 1e-7]
    model = FluctuationModel(g_mean=1e5, tau=taus[0], mode=mode)
    column = fluctuations._kernels(omegas, model, T_COMPARE, taus=taus)
    assert column.shape == (len(taus), omegas.size)
    for tau, row in zip(taus, column):
        scalar = fluctuations._kernels(omegas, FluctuationModel(1e5, tau, mode), T_COMPARE)
        assert np.array_equal(row, scalar)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("mode", fluctuations.MODES)
def test_a_tau_whose_shape_overflows_is_the_fluctuation_free_limit(mode):
    # t / 5e-324 overflows to inf: the documented tau -> 0 limit, not NaN
    _, omegas, _ = fluctuations._area_terms(9)
    limit = np.cos(omegas * 1e5 * T_COMPARE)
    model = FluctuationModel(1e5, 5e-324, mode, mc_samples=100)
    assert np.array_equal(fluctuations._kernels(omegas, model, T_COMPARE), limit)
    if mode != "monte_carlo":
        column = fluctuations._kernels(omegas, model, T_COMPARE, taus=[5e-324, 1e-8])
        resolved = fluctuations._kernels(omegas, FluctuationModel(1e5, 1e-8, mode), T_COMPARE)
        assert np.array_equal(column, [limit, resolved])


def test_gamma_kernel_is_continuous_where_its_square_overflows():
    # at N = 9 and g = 1e5, (omega g tau)^2 overflows from tau near 1e150 and
    # omega g tau itself from tau near 1e302; the kernel stays at its limit 1
    _, omegas, _ = fluctuations._area_terms(9)
    taus = np.logspace(140.0, 308.0, 337)
    with np.errstate(over="ignore"):
        x = omegas[-1] * 1e5 * taus
        assert np.isinf(x * x).any() and np.isfinite(x * x).any() and np.isinf(x).any()
    rows = np.array([fluctuations.gamma_kernel(omegas, 1e5, tau, T_COMPARE) for tau in taus])
    assert np.array_equal(rows, np.ones_like(rows))
    column = fluctuations._kernels(omegas, FluctuationModel(1e5, 1e-8, "gamma_exact"),
                                   T_COMPARE, taus=taus)
    assert np.array_equal(column, rows)


@pytest.mark.parametrize("omega, g, tau", [(1.0, 1.0, 1e160), (10.0, 1e10, 1e300)])
def test_gamma_kernel_where_the_square_overflows_at_shape_one_half(omega, g, tau):
    # (1 - i x)^(-1/2) at huge x: modulus x^(-1/2), phase pi/4; in the second
    # case x = 1e311 overflows itself
    log_x = math.log10(omega) + math.log10(g) + math.log10(tau)
    expected = 10.0 ** (-log_x / 2.0) * math.cos(math.pi / 4.0)
    assert fluctuations.gamma_kernel(omega, g, tau, tau / 2.0) == pytest.approx(
        expected, rel=1e-12, abs=0.0
    )


@pytest.mark.parametrize("mode", fluctuations.MODES)
def test_a_tau_whose_scale_overflows_is_the_exact_law_limit(mode):
    # g tau = 1.7e313 overflows: the Gamma shape is below 1e-300, so
    # E[cos(omega A)] is 1.0; the Gaussian formula gives its 0 instead
    _, omegas, _ = fluctuations._area_terms(9)
    model = FluctuationModel(1e5, 1.7e308, mode, mc_samples=100)
    limit = np.ones(omegas.size)
    if mode == "gaussian_approx":
        limit[omegas != 0.0] = 0.0
    assert np.array_equal(fluctuations._kernels(omegas, model, T_COMPARE), limit)
    if mode != "monte_carlo":
        column = fluctuations._kernels(omegas, model, T_COMPARE, taus=[1e-8, 1.7e308])
        resolved = fluctuations._kernels(omegas, FluctuationModel(1e5, 1e-8, mode), T_COMPARE)
        assert np.array_equal(column, [resolved, limit])


def test_gamma_and_monte_carlo_agree_at_huge_tau():
    # tau = 1e300 keeps g tau finite, so the kernel is evaluated and the areas drawn
    tau = 1e300
    gamma = averaged_ground_probability(9, FluctuationModel(1e5, tau, "gamma_exact"), T_COMPARE)
    mc = averaged_ground_probability(
        9, FluctuationModel(1e5, tau, "monte_carlo", mc_samples=100), T_COMPARE
    )
    assert gamma == pytest.approx(1.0, abs=1e-15)
    assert mc == pytest.approx(gamma, abs=1e-15)


def test_tau_column_is_checked_like_the_model():
    _, omegas, _ = fluctuations._area_terms(9)
    model = FluctuationModel(g_mean=1e5, tau=1e-8, mode="gamma_exact")
    for bad_tau in (-1e-9, np.inf, np.nan):
        with pytest.raises(ValueError) as from_model:
            FluctuationModel(g_mean=1e5, tau=bad_tau)
        with pytest.raises(ValueError) as from_column:
            fluctuations._kernels(omegas, model, T_COMPARE, taus=[1e-8, bad_tau])
        assert str(from_column.value) == str(from_model.value)
    with pytest.raises(ValueError, match="analytic mode and positive taus"):
        fluctuations._kernels(omegas, model, T_COMPARE, taus=[1e-8, 0.0])
    sampled = FluctuationModel(g_mean=1e5, tau=1e-8, mode="monte_carlo", mc_samples=10)
    with pytest.raises(ValueError, match="analytic mode and positive taus"):
        fluctuations._kernels(omegas, sampled, T_COMPARE, taus=[1e-8])
