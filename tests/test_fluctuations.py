import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
from ionparity import checks, cli, fluctuations, preparation
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


# Unit roundoff of float64.
U = np.finfo(float).eps / 2.0

# pi to 63 digits, far past float64, to measure the reduction's constants
PI = Fraction("3.14159265358979323846264338327950288419716939937510582097494459")

HIGH, LOW = fluctuations.REDUCE_HIGH, fluctuations.REDUCE_LOW
LIMIT, FLOOR = fluctuations.REDUCTION_LIMIT, fluctuations.REDUCTION_FLOOR


def reduction_error(arguments):
    """The largest error, per draw, of a reduced base row against the exact
    cosine of its argument x = fl(b A), for |x| up to ``LIMIT``.

    The row is T_4(c), where c is libm's cosine of z' = fl(fl(z - h) - l),
    z = x/4 exactly, k = rint(fl(z 2/pi)), h = k HIGH exactly, and
    l = fl(h fl(LOW/HIGH)).  To first order in the unit roundoff u:
    - z' = z - k pi/2 + e with |e| <= u |z - h| + u |z'|
      + |k| (2u |LOW| + |HIGH + LOW - pi/2|): each subtraction rounds once,
      l is within 2u |k LOW| of k LOW, and HIGH + LOW misses pi/2.  Up to
      the limit |z - h| and |z'| stay under 1, and |k| <= |x|/(2 pi) + 1.
    - T_4(cos z') = cos(4z') = cos(x - 2 pi k + 4e), which is within 4|e|
      of cos x: 8u plus the constants' part.
    - c is within 2u of cos z' (libm's cosine errs by under one ulp), and
      |T_4'| <= 16 on [-1, 1]: 32u.
    - The first doubling c1 = 2c^2 - 1 rounds c^2 by u, which the exact
      doubling makes 2u, and its subtraction is exact, since 2c^2 >= 1/2
      for |z'| <= pi/4 + 0.01.  The second doubling's slope 4 c1 <= 4 makes
      that 8u, and it rounds c1^2 (2u again) and its subtraction (u): 11u.
    So the row is within 51u + 4|k| (2u |LOW| + |HIGH + LOW - pi/2|)."""
    constants = 2 * U * abs(LOW) + float(abs(Fraction(HIGH) + Fraction(LOW) - PI / 2))
    return 51 * U + 4 * (np.abs(arguments) / (2 * np.pi) + 1) * constants


def ladder_rungs(omegas, samples):
    """The rung from which the kernel forms each row of ``omegas``: a zero
    frequency's row is set to 1, which is libm's cos(0) as well."""
    nonzero = np.flatnonzero(omegas != 0.0)
    ladder = fluctuations._ladder(omegas[nonzero], min(samples, fluctuations.MC_DRAW_BLOCK))
    sought = np.ones(omegas.size, dtype=np.int64)
    for rung in ladder.needed:
        row = np.arange(ladder.offsets[rung], ladder.offsets[rung] + ladder.depth[rung])
        sought[nonzero[np.isin(ladder.slots, row)]] = rung
    return sought


def ladder_bound(rungs, omegas, draws):
    """The largest difference the error analysis below allows between the
    kernel's mean and libm's mean of cos(omega A) over the same ``draws``,
    one block of them.

    Row omega at rung m is T_m(c), where c is the row of its base b, and T_m
    runs y_k = 2 c y_(k-1) - y_(k-2) from y_0 = 1.  Per draw, to first order
    in the unit roundoff u:
    - c is within ``reduction_error`` of cos x, x = fl(b A), where it was
      reduced, and within libm's 2u, which is less, where it was not; b A
      is at most |omega A|.  |T_m'| <= m^2 on [-1, 1] makes that m^2 times
      as much.
    - a rung rounds c y_(k-1) by u, which the exact doubling makes 2u, and
      the subtraction, whose result is near |T_k| <= 1, by u: 3u a rung.
      An error made at rung k reaches rung m times U_(m-k), |U_j| <= j + 1:
      3u (1 + ... + (m - 1)) = 1.5 m (m - 1) u;
    - from rung 2 on, m x and libm's argument fl(omega A) differ by at most
      4u |omega A| (b, omega and the two products round once each), which
      moves the cosine by as much; libm's own cosine adds 2u.
    The two means sum n such terms in the same pairwise tree, which adds at
    most h <= 128 + log2 n roundings of the running sum to each term, so
    each sum is within h u n of its exact value, and each divides once.
    Rows that keep libm's product and cosine (``libm_rows``) are equal bit
    for bit.
    """
    return climb_error(rungs, omegas, draws) + U * (2 * (128 + np.log2(draws.size)) + 2)


def climb_error(rungs, omegas, draws):
    """The per-draw part of ``ladder_bound``."""
    arguments = np.abs(omegas) * np.max(draws)
    return rungs**2 * reduction_error(arguments) + U * (
        1.5 * rungs * (rungs - 1) + np.where(rungs > 1, 4 * arguments, 0.0) + 2)


def libm_rows(omegas, samples, draws):
    """The rows the kernel keeps bit for bit at libm's: every row of a call
    whose blocks hold fewer than ``LADDER_MIN_DRAWS`` draws or whose largest
    argument is at most ``FLOOR``, a zero frequency's row, and a rung-1 row
    whose own largest argument passes ``LIMIT``, since its group's largest
    does too."""
    arguments = np.abs(omegas) * np.max(draws)
    if (min(samples, fluctuations.MC_DRAW_BLOCK) < fluctuations.LADDER_MIN_DRAWS
            or np.max(arguments) <= FLOOR):
        return np.ones(omegas.size, dtype=bool)
    alone = ladder_rungs(omegas, samples) == 1
    return (omegas == 0.0) | (alone & ~(arguments <= LIMIT))


def assert_ladder_rows(omegas, samples, seed=5, g=1.0, tau=1e-3, t=1.0):
    """The kernel's rows at ``omegas`` from one block of draws against
    libm's outer product: the ``libm_rows`` bit for bit, every row within
    ``ladder_bound``.  Returns the rungs, the differences and the draws."""
    assert samples <= fluctuations.MC_DRAW_BLOCK
    model = FluctuationModel(g_mean=g, tau=tau, mode="monte_carlo", mc_samples=samples,
                             seed=seed)
    means = fluctuations._kernels(omegas, model, t)
    draws = sample_pulse_areas(g, tau, t, np.random.default_rng(seed), samples)
    libm = np.cos(np.multiply.outer(omegas, draws)).mean(axis=1)
    rungs = ladder_rungs(omegas, samples)
    exact = libm_rows(omegas, samples, draws)
    assert np.array_equal(means[exact], libm[exact])
    differences = np.abs(means - libm)
    assert np.all(differences <= ladder_bound(rungs, omegas, draws))
    return rungs, differences, draws


def test_monte_carlo_blocks_match_one_outer_product():
    # N = 62 has 32 distinct keys, 31 of them non-zero; 31 x 5e4 draws exceed
    # the tile cap, in six tiles of 5 rows and one of 1.  5e4 draws fit in one
    # draw block, so every row keeps the summation order of the full product.
    # Each root s of a key p = s m^2 of N = 62 holds that key alone, and a
    # lone key takes its own reduced cosine, so every row is at rung 1.
    samples = 50_000
    _, omegas, weights = fluctuations._area_terms(62)
    assert samples <= fluctuations.MC_DRAW_BLOCK
    assert (omegas.size - 1) * samples > fluctuations.MC_BLOCK_PAIRS
    assert (omegas.size - 1) % (fluctuations.MC_BLOCK_PAIRS // samples) != 0
    rungs, _, draws = assert_ladder_rows(omegas, samples)
    assert np.all(rungs == 1)
    model = FluctuationModel(g_mean=1.0, tau=1e-3, mode="monte_carlo", mc_samples=samples, seed=5)
    full = np.cos(np.multiply.outer(omegas, draws)).mean(axis=1)
    # the weights sum to 1, and the weighted sums round at rounding level
    assert averaged_ground_probability(62, model, 1.0) == pytest.approx(
        float(0.5 * (1.0 + weights @ full)),
        abs=float(0.5 * weights @ ladder_bound(rungs, omegas, draws)) + 8 * U)


def test_ladder_of_the_tau_sweep_union_climbs_to_rung_five():
    # N = 9 and 10 share 9 non-zero keys: 9 = 1*3^2, 16 = 1*4^2, 25 = 1*5^2
    # climb root 1 to rung 5, and 8 = 2*2^2, 18 = 2*3^2 root 2 to rung 3;
    # 20 = 5*2^2 and 24 = 6*2^2 would climb alone, so they keep their own
    # cosines, as 14 and 21 do: 6 cosines a draw instead of 9
    omegas = fluctuations._mixture_matrix([((9,), (1.0,)), ((10,), (1.0,))])[0]
    keys = np.round((omegas / 4.0) ** 2).astype(int)
    rungs, differences, _ = assert_ladder_rows(omegas, 1 << 14)
    assert dict(zip(keys.tolist(), rungs.tolist())) == {
        0: 1, 8: 2, 9: 3, 14: 1, 16: 4, 18: 3, 20: 1, 21: 1, 24: 1, 25: 5}
    ladder = fluctuations._ladder(omegas[omegas != 0.0], 1 << 14)
    assert ladder.bases.size == 6 and ladder.tops.tolist() == [5, 3, 1, 1, 1, 1]
    assert np.max(differences) > 0.0  # rung >= 2 rows are the recurrence's own


def test_ladder_of_a_wide_mixture_climbs_past_rung_seventeen():
    # the targets of an eta-sweep point at its lowest efficiency, 0.05, span
    # totals 0..~150 and 176 keys on 76 roots
    delta = preparation.delta_from_efficiency(0.05)
    omegas = fluctuations._mixture_matrix(
        [preparation.PreparationModel(n, delta).terms() for n in (9, 10)])[0]
    rungs, _, _ = assert_ladder_rows(omegas, 1 << 12)
    assert rungs.max() >= 17
    assert fluctuations._ladder(omegas[omegas != 0.0], 1 << 12).bases.size < omegas.size // 2


def test_ladder_of_a_large_total_keeps_every_key_on_its_own_cosine():
    # the 2000 non-zero keys of N = 4001 lie on 2000 roots: no cosine is
    # shared, and a recurrence would only add rungs.  Below LADDER_MIN_DRAWS
    # draws a block keeps libm's rows, bit for bit.
    _, omegas, _ = fluctuations._area_terms(4001)
    rungs, differences, _ = assert_ladder_rows(omegas, fluctuations.LADDER_MIN_DRAWS)
    assert np.all(rungs == 1) and np.max(differences) > 0.0
    rungs, differences, _ = assert_ladder_rows(omegas, fluctuations.LADDER_MIN_DRAWS - 1)
    assert np.all(rungs == 1) and np.all(differences == 0.0)


def test_ladder_places_key_frequencies_on_their_roots_and_the_rest_alone():
    # 4 and 8 are keys 1 and 4 = 1*2^2; 12 = 4 sqrt(9) is key 9 = 1*3^2 but
    # 3 times 4 sqrt(2) is not how a key's frequency is formed; 1.3, -4,
    # 4 * 2^27 (whose key 2^54 is past 2^53), inf and nan are no keys.  A
    # repeated key shares its row.
    frequencies = np.array([1.3, 4.0, 8.0, 12.0, 3.0 * (2.0 * (2.0 * np.sqrt(2.0))), -4.0,
                            4.0 * 2.0**27, np.inf, np.nan, 8.0])
    ladder = fluctuations._ladder(frequencies, fluctuations.LADDER_MIN_DRAWS)
    assert ladder.bases[0] == 4.0 and ladder.tops.tolist() == [3] + [1] * 6
    assert ladder_rungs(frequencies, fluctuations.LADDER_MIN_DRAWS).tolist() == [
        1, 1, 2, 3, 1, 1, 1, 1, 1, 2]
    assert ladder.slots[2] == ladder.slots[9]
    small = fluctuations._ladder(frequencies, fluctuations.LADDER_MIN_DRAWS - 1)
    assert np.array_equal(small.bases, frequencies, equal_nan=True)
    assert set(small.needed) == {1}
    finite = frequencies[np.isfinite(frequencies)]
    assert_ladder_rows(finite, fluctuations.LADDER_MIN_DRAWS)


def flipped_climb(cosines, previous, before, out):
    """The recurrence with the sign of cos((m-2) x) flipped."""
    np.multiply(cosines, previous, out=out)
    np.add(out, out, out=out)
    np.add(out, 1.0 if before is None else before, out=out)


RUNGS = fluctuations._rungs


def shifted_rungs(frequencies):
    """The placement of the frequencies with every rung above 1 one too high."""
    bases, tops, owners, rungs = RUNGS(frequencies)
    return bases, tops + (tops > 1), owners, rungs + (rungs > 1)


@pytest.mark.parametrize("fault", ["flipped sign", "one rung off"])
def test_a_faulted_recurrence_leaves_the_bound_and_fails_the_check(fault, monkeypatch):
    if fault == "flipped sign":
        monkeypatch.setattr(fluctuations, "_climb", flipped_climb)
    else:
        monkeypatch.setattr(fluctuations, "_rungs", shifted_rungs)
    fluctuations._cached_ladder.cache_clear()  # ladders placed by the true _rungs
    try:
        omegas = fluctuations._mixture_matrix([((9,), (1.0,)), ((10,), (1.0,))])[0]
        with pytest.raises(AssertionError):
            assert_ladder_rows(omegas, 1 << 14)
        # omega = 8 is key 4 = 1*2^2, and its 2 omega key 16 = 1*4^2: both
        # rows climb from the cosine at omega = 4.  A faulted second moment
        # may leave no variance, and so a pull of inf.
        with np.errstate(divide="ignore"):
            result = checks.monte_carlo_vs_gamma(0)
        assert not result.passed and result.measured > 10.0 * result.bound
    finally:
        fluctuations._cached_ladder.cache_clear()


def test_reduction_constants_split_half_pi():
    # HIGH is float32(pi/2), 24 significant bits, so k HIGH is exact for
    # |k| < 2^29; LOW is the float64 nearest pi/2 - HIGH; and up to the
    # limit k stays under 2^18 and the constants' part of the error under u/10
    assert HIGH == float(np.float32(np.pi / 2.0))
    assert Fraction(HIGH).numerator.bit_length() == 24
    assert LOW == float(PI / 2 - Fraction(HIGH))
    assert abs(Fraction(HIGH) + Fraction(LOW) - PI / 2) <= Fraction(U) * abs(Fraction(LOW))
    assert LIMIT / (2.0 * np.pi) + 1.0 < 2.0**18
    assert reduction_error(LIMIT) - reduction_error(0.0) < U / 10.0


def reduced_rows(frequencies, draws):
    """The reduced ``_base_rows`` of ``frequencies`` over ``draws``, one row
    at a time through a scratch of one row."""
    cosines = np.empty((frequencies.size, draws.size))
    fluctuations._base_rows(frequencies, draws, cosines, np.empty(draws.size), True)
    return cosines


def assert_reduced_row(base, draws):
    """A reduced row within ``reduction_error`` of the exact cosine, so
    within 2u more of libm's cosine of the same product."""
    arguments = base * draws
    differences = np.abs(reduced_rows(np.array([base]), draws)[0] - np.cos(arguments))
    assert np.all(differences <= reduction_error(arguments) + 2 * U), arguments[
        np.argmax(differences - reduction_error(arguments))]


def test_reduced_rows_at_the_edges_of_the_reduction():
    # x = 0; multiples of pi/2 and 2 pi (as floats), the first where the
    # cosine is near 0; the quarter angle at +-pi/4 plus multiples of pi/2,
    # where rint meets its ties, and the floats either side of them; and the
    # limit itself
    j = np.arange(0.0, 160_000.0, 997.0)
    ties = np.concatenate([np.pi * (2.0 * j + 1.0), np.pi * (2.0 * j[1:] - 1.0)])
    draws = np.concatenate([
        [0.0, LIMIT, np.nextafter(LIMIT, 0.0)],
        0.5 * np.pi * np.arange(1.0, 400.0), 2.0 * np.pi * np.arange(1.0, 400.0),
        2.0 * np.pi * j, ties, np.nextafter(ties, 0.0), np.nextafter(ties, np.inf)])
    assert draws.max() <= LIMIT
    assert_reduced_row(1.0, draws)
    # the quarter angles of the ties themselves sit where rint rounds half
    quarter = 0.25 * ties * (2.0 / np.pi)
    assert np.any(np.abs(quarter - np.floor(quarter) - 0.5) < 1e-9)
    assert reduced_rows(np.ones(1), np.zeros(3)).tolist() == [[1.0, 1.0, 1.0]]


@settings(max_examples=300, deadline=None)
@given(st.floats(0.5, 64.0),
       st.lists(st.floats(0.0, LIMIT / 64.0), min_size=1, max_size=50))
def test_reduced_rows_hold_the_bound_up_to_the_limit(base, draws):
    assert_reduced_row(base, np.array(draws))


def libm_sums(frequencies, draws):
    """libm's row sums of cos(frequency * draw), as the kernel sums a row."""
    return np.cos(np.multiply.outer(frequencies, draws)).sum(axis=1)


@pytest.mark.parametrize("edge", ["floor", "limit"])
def test_a_group_outside_the_reduced_range_keeps_libm_rows(edge):
    # Two lone bases in one group, whose largest argument decides for both.
    # At the floor both rows are libm's, and one float past it both are
    # reduced.  Up to the limit both are reduced; one float past it both are
    # libm's, the row of base 1 too, whose own arguments stay at a quarter
    # of the limit.
    frequencies = np.array([1.0, 4.0])
    ladder = fluctuations._ladder(frequencies, fluctuations.LADDER_MIN_DRAWS)
    assert ladder.climb and ladder.tops.tolist() == [1, 1]
    high = FLOOR if edge == "floor" else LIMIT
    draws = np.random.default_rng(3).uniform(0.0, high / 4.0, fluctuations.LADDER_MIN_DRAWS)
    for top in (high / 4.0, np.nextafter(high / 4.0, np.inf)):
        draws[0] = top
        reduced = FLOOR < 4.0 * top <= LIMIT
        expected = (reduced_rows(frequencies, draws).sum(axis=1) if reduced
                    else libm_sums(frequencies, draws))
        assert np.array_equal(fluctuations._cosine_sums(ladder, draws), expected)
    # the two routes differ on these draws, so the test tells them apart
    assert not np.array_equal(reduced_rows(frequencies, draws).sum(axis=1),
                              libm_sums(frequencies, draws))


@pytest.mark.parametrize("tau", [1e-3, 1e-2, 1e-1, 1.0])
def test_heavy_tailed_draws_keep_libm_rows_past_the_reduction_limit(tau):
    # The tau-sweep's keys and model at its comparison time: the Gamma shape
    # t/tau falls from 0.067 and the scale g tau grows to 1e5, so the largest
    # argument grows from about 1.4e4 (tau = 1e-3) to 4.2e6 (tau = 1).  There
    # every key's own argument passes the limit, so the groups of the rung-1
    # rows keep libm's rows bit for bit; root 1 (base 4), which rungs climb
    # from, stays below it and is reduced
    omegas = fluctuations._mixture_matrix([((9,), (1.0,)), ((10,), (1.0,))])[0]
    rungs, _, draws = assert_ladder_rows(omegas, fluctuations.MC_DRAW_BLOCK, g=1e5, tau=tau,
                                         t=T_COMPARE)
    past = np.abs(omegas) * draws.max() > LIMIT
    assert past.sum() == (omegas.size - 1 if tau == 1.0 else 0)
    assert np.all(libm_rows(omegas, draws.size, draws)[past & (rungs == 1)])


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
    # of a mean of magnitude at most 1 on each side.  Keys 81, 144 and 225
    # (root 1) and 56 and 224 (root 14) climb the recurrence, whose rows
    # differ from libm's by at most ``climb_error`` a draw.
    bound = U * (2 * 128 + np.log2(samples) + np.log2(fluctuations.MC_DRAW_BLOCK) + 4 + 2)
    rungs = ladder_rungs(omegas, samples)
    assert rungs.max() == 15
    assert np.all(np.abs(streamed - full) <= bound + climb_error(rungs, omegas, draws))
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
    assert fluctuations.MC_BLOCK_PAIRS == 1 << 18  # the tile is 2 MiB
    # Once the thread has its tile, summing a block allocates only the sum
    # table and the row it returns, plus array headers: the reduction's
    # scratch is part of the tile (one plane would be 512 KiB here)
    ladder = fluctuations._ladder(omegas[1:], fluctuations.MC_DRAW_BLOCK)
    draws = sample_pulse_areas(1e5, 1e-8, T_COMPARE, np.random.default_rng(1),
                               fluctuations.MC_DRAW_BLOCK)
    fluctuations._cosine_sums(ladder, draws)
    tracemalloc.start()
    try:
        fluctuations._cosine_sums(ladder, draws)
        one_call = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    table = ladder.offsets[-1] + ladder.depth[-1]
    assert one_call <= 8 * (table + ladder.slots.size) + (1 << 12)


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


def ladder_bases(omegas, samples):
    """The base each row of ``omegas`` climbs from, 0 for a zero frequency."""
    nonzero = np.flatnonzero(omegas != 0.0)
    ladder = fluctuations._ladder(omegas[nonzero], min(samples, fluctuations.MC_DRAW_BLOCK))
    rungs = ladder_rungs(omegas, samples)[nonzero]
    bases = np.zeros(omegas.size)
    bases[nonzero] = ladder.bases[ladder.slots - np.array(ladder.offsets)[rungs]]
    return bases


@pytest.mark.parametrize("seed", range(8))
def test_monte_carlo_merged_row_equals_unmerged_row(seed):
    # Every k of N = 9 gets the row of its key p = (N-k)k.  The two calls
    # place their keys on different ladders: unmerged, key 20 = 5*2^2 comes
    # twice and climbs from root 5 as rung 2; merged, it takes its own
    # cosine.  A row formed from the same base and rung in both is equal bit
    # for bit (every group's largest argument, near 4 sqrt(p) >= 5.6, lies
    # between the reduction's floor and limit, so every group is reduced in
    # both); any other is held to ``ladder_bound``.
    samples = 5000
    model = FluctuationModel(g_mean=1.0, tau=1e-3, mode="monte_carlo", mc_samples=samples,
                             seed=seed)
    spread = 2.0 * rabi_spectrum(9, 1.0).frequencies
    unmerged = fluctuations._kernels(spread, model, 1.0, None)
    keys, omegas, _ = fluctuations._area_terms(9)
    merged = fluctuations._kernels(omegas, model, 1.0, None)
    k = np.arange(10)
    row = np.searchsorted(keys, (9 - k) * k)
    rungs = ladder_rungs(omegas, samples)[row]
    same = ((ladder_bases(omegas, samples)[row] == ladder_bases(spread, samples))
            & (rungs == ladder_rungs(spread, samples)))
    assert not same.all() and same.sum() == 8
    assert np.array_equal(merged[row][same], unmerged[same])
    # each side is within ladder_bound of libm's row, at its own rung
    draws = sample_pulse_areas(1.0, 1e-3, 1.0, np.random.default_rng(seed), samples)
    bound = (ladder_bound(rungs, omegas[row], draws)
             + ladder_bound(ladder_rungs(spread, samples), spread, draws))
    assert np.all(np.abs(merged[row] - unmerged) <= bound)


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


def per_term_mixture_matrix(mixtures):
    """``_mixture_matrix`` as one Python step per (mixture, term): the loop
    the gather over distinct totals replaced, kept as its oracle."""
    parts = [(index, weight, fluctuations._area_terms(int(n)))
             for index, (n_totals, weights) in enumerate(mixtures)
             for n, weight in zip(n_totals, weights) if weight != 0.0]
    owners, term_weights, terms = zip(*parts)
    keys, first, inverse = np.unique(np.concatenate([term[0] for term in terms]),
                                     return_index=True, return_inverse=True)
    omegas = np.concatenate([term[1] for term in terms])[first]
    sizes = [term[0].size for term in terms]
    owners = np.repeat(owners, sizes)
    term_weights = np.repeat(term_weights, sizes) * np.concatenate([term[2] for term in terms])
    matrix = np.bincount(owners * keys.size + inverse, weights=term_weights,
                         minlength=len(mixtures) * keys.size).reshape(len(mixtures), keys.size)
    return omegas, matrix


def assert_matrix_of_the_term_loop(mixtures):
    omegas, matrix = fluctuations._mixture_matrix(mixtures)
    expected_omegas, expected_matrix = per_term_mixture_matrix(mixtures)
    assert np.array_equal(omegas, expected_omegas)
    assert np.array_equal(matrix, expected_matrix)


def test_mixture_matrix_of_the_eta_sweep_targets_equals_the_term_loop():
    # every point of the default eta-sweep at n = 9, both targets of each
    mixtures = [prep.terms() for eta in np.linspace(0.05, 1.0, 20).tolist()
                for prep in cli._targets(9, "eta_min", eta)]
    assert_matrix_of_the_term_loop(mixtures)
    for pair in zip(mixtures[::2], mixtures[1::2]):
        assert_matrix_of_the_term_loop(list(pair))


@pytest.mark.parametrize("mixtures", [
    # repeated and unsorted totals within one mixture
    [((12, 3, 12, 0, 7, 3), (0.1, 0.2, 0.15, 0.05, 0.3, 0.2)), ((7, 12), (0.4, 0.6))],
    # zero-weight terms, one of them the only term of its total
    [((9, 2001, 10, 4), (0.5, 0.0, 0.5, 0.0)), ((4, 10), (1.0, 0.0))],
    # N = 0 and N = 1, alone and together
    [((0,), (1.0,)), ((1,), (1.0,)), ((0, 1), (0.5, 0.5))],
    # numpy totals and weights, as a preparation's terms() gives them
    [(np.arange(5), np.full(5, 0.2)), (np.array([9]), np.array([1.0]))],
])
def test_mixture_matrix_equals_the_term_loop(mixtures):
    assert_matrix_of_the_term_loop(mixtures)


def test_mixture_matrices_of_a_monte_carlo_sweep_equal_the_term_loop(monkeypatch):
    # the pair matrices cli._parity_curves builds once per eta in mc mode
    seen = []
    original = fluctuations._mixture_matrix

    def recording(mixtures):
        seen.append(mixtures)
        return original(mixtures)

    monkeypatch.setattr(fluctuations, "_mixture_matrix", recording)
    config = {**cli.DEFAULTS["eta-sweep"], "out": None, "mode": "mc", "mc_samples": 200,
              "eta_steps": 5, "tau": [1e-8], "workers": 1}
    cli.cmd_eta_sweep(config)
    monkeypatch.undo()
    assert len(seen) == 5
    for mixtures in seen:
        assert_matrix_of_the_term_loop(mixtures)


@pytest.mark.parametrize("mixtures, message", [
    ([((2.5,), (1.0,))], "non-negative integer, got 2.5"),
    ([((9, -1), (0.5, 0.5))], "non-negative integer, got -1"),
    ([], "no mixture given"),
    ([((9, 10), (1.0,))], "one weight per total"),
])
def test_mixture_matrix_rejects_bad_totals(mixtures, message):
    model = FluctuationModel(g_mean=1e5, tau=1e-8, mode="gamma_exact")
    with pytest.raises(ValueError, match=message):
        mixture_ground_probabilities(mixtures, model, T_COMPARE)


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
