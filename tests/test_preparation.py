import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ionparity import (
    FluctuationModel,
    PreparationModel,
    averaged_ground_probability,
    averaged_ground_probability_mixed,
    delta_from_efficiency,
    efficiency,
    mixture_ground_probabilities,
    parity_delta_mixed,
)
from ionparity import fluctuations, preparation

T_COMPARE = 17.0 * np.pi / 8.0 / 1e5
MODEL = FluctuationModel(g_mean=1e5, tau=1e-8)

# frozen from independent brute-force evaluation
DELTA_FOR_ETA_09 = 0.46599060178465607
ETA_FOR_DELTA_1 = 0.39346934028736658
C9_AT_COMPARISON = 0.98359030620125232
C10_AT_COMPARISON = 0.51716019039477334
C11_AT_COMPARISON = 0.3559314397907265
MIXED_DP_09_1E8 = 0.1337902764069957


def test_efficiency_limits():
    assert efficiency(None) == 1.0
    assert efficiency(1e-6) == pytest.approx(1.0, abs=1e-12)
    assert efficiency(100.0) == pytest.approx(0.0, abs=1e-4)
    assert efficiency(1.0) == pytest.approx(ETA_FOR_DELTA_1, abs=1e-15)


def test_efficiency_rejects_nonpositive_width():
    with pytest.raises(ValueError):
        efficiency(0.0)
    with pytest.raises(ValueError):
        efficiency(-0.3)


def test_delta_from_efficiency_spot_values():
    assert delta_from_efficiency(0.9) == pytest.approx(DELTA_FOR_ETA_09, abs=1e-15)
    assert delta_from_efficiency(ETA_FOR_DELTA_1) == pytest.approx(1.0, abs=1e-12)


def test_delta_from_efficiency_domain():
    # 1 - eta rounds to 1 for the last two, so no finite width has them
    for bad in (0.0, 1.0, -0.1, 1.5, 1e-320, 1e-17):
        with pytest.raises(ValueError):
            delta_from_efficiency(bad)


@given(st.floats(min_value=1e-3, max_value=1.0 - 1e-9))
def test_efficiency_round_trip(eta):
    assert efficiency(delta_from_efficiency(eta)) == pytest.approx(eta, abs=1e-12)


def test_high_efficiency_means_narrow_width():
    assert delta_from_efficiency(1.0 - 1e-12) < delta_from_efficiency(0.9) < 1.0


def test_preparation_model_weights():
    prep = PreparationModel(n_target=9, delta=0.5)
    m_values, weights = prep.terms()
    assert m_values[0] == 0
    assert m_values[-1] == 9 + math.ceil(8 * 0.5)
    assert np.sum(weights) == pytest.approx(1.0, abs=1e-12)
    # neighbour ratio encodes the efficiency
    w = dict(zip(m_values.tolist(), weights.tolist()))
    assert w[10] / w[9] == pytest.approx(1.0 - efficiency(prep.delta), rel=1e-12)


def test_preparation_model_exact_flag():
    prep = PreparationModel(n_target=9)
    m_values, weights = prep.terms()
    assert m_values.tolist() == [9]
    assert weights.tolist() == [1.0]
    assert efficiency(prep.delta) == 1.0
    for bad_delta in (0.0, -0.5, math.inf, math.nan):
        with pytest.raises(ValueError, match="delta"):
            PreparationModel(n_target=9, delta=bad_delta)
    with pytest.raises(ValueError):
        PreparationModel(n_target=-1)


def test_exact_mixture_equals_pure_run():
    prep = PreparationModel(n_target=9)
    mixed = averaged_ground_probability_mixed(prep, MODEL, T_COMPARE)
    pure = averaged_ground_probability(9, MODEL, T_COMPARE)
    assert mixed == pure


@pytest.mark.parametrize("mode", ["gamma_exact", "gaussian_approx", "monte_carlo"])
def test_mixture_is_convex_combination(mode):
    # each pure run re-derives its Monte-Carlo draws from the model seed, so
    # every term sees the draws the mixture shares across its whole spectrum
    model = FluctuationModel(g_mean=1e5, tau=1e-8, mode=mode, mc_samples=20_000, seed=11)
    prep = PreparationModel(n_target=9, delta=0.8)
    m_values, weights = prep.terms()
    expected = sum(
        w * averaged_ground_probability(int(m), model, T_COMPARE)
        for m, w in zip(m_values, weights)
    )
    mixed = averaged_ground_probability_mixed(prep, model, T_COMPARE)
    assert mixed == pytest.approx(expected, abs=1e-15)
    # the parity partner joins the same kernel call without moving either value
    partner = PreparationModel(n_target=10, delta=0.8)
    joint = mixture_ground_probabilities((prep.terms(), partner.terms()), model, T_COMPARE)
    assert joint == pytest.approx(
        [mixed, averaged_ground_probability_mixed(partner, model, T_COMPARE)], abs=1e-15
    )
    assert parity_delta_mixed(9, 0.8, model, T_COMPARE) == joint[0] - joint[1]


def test_zero_weight_tail_is_dropped():
    # at N = 2001 and efficiency 0.9 only 22 of the 2006 weights are non-zero
    prep = PreparationModel(2001, delta_from_efficiency(0.9))
    _, weights = prep.terms()
    assert (len(weights), int(np.count_nonzero(weights))) == (2006, 22)
    fluctuations._area_terms.cache_clear()
    averaged_ground_probability_mixed(prep, MODEL, T_COMPARE)
    assert fluctuations._area_terms.cache_info().currsize == 22


def test_truncation_is_converged():
    prep = PreparationModel(n_target=9, delta=1.0)
    base = averaged_ground_probability_mixed(prep, MODEL, T_COMPARE)
    widened = averaged_ground_probability_mixed(prep, MODEL, T_COMPARE, extra_terms=8)
    assert abs(base - widened) < 1e-9


def test_narrow_width_recovers_exact_limit():
    narrow = averaged_ground_probability_mixed(
        PreparationModel(9, delta=1e-3), MODEL, T_COMPARE
    )
    exact = averaged_ground_probability_mixed(PreparationModel(9), MODEL, T_COMPARE)
    assert abs(narrow - exact) <= 1e-6


def test_vacuum_target_is_stationary():
    prep = PreparationModel(n_target=0)
    assert averaged_ground_probability_mixed(prep, MODEL, T_COMPARE) == 1.0


def test_two_point_mixture_contrast_by_linearity():
    ideal = FluctuationModel(g_mean=1e5, tau=0.0)
    c = {
        n: averaged_ground_probability(n, ideal, T_COMPARE) for n in (9, 10, 11)
    }
    # equal-weight mixtures {9,10} vs {10,11}: the shared term cancels
    mixed_contrast = 0.5 * (c[9] + c[10]) - 0.5 * (c[10] + c[11])
    assert mixed_contrast == pytest.approx(0.5 * (c[9] - c[11]), abs=1e-15)
    assert mixed_contrast / (c[9] - c[10]) == pytest.approx(
        0.5 * (C9_AT_COMPARISON - C11_AT_COMPARISON)
        / (C9_AT_COMPARISON - C10_AT_COMPARISON),
        abs=1e-10,
    )


def test_parity_delta_mixed_frozen_value():
    value = parity_delta_mixed(9, DELTA_FOR_ETA_09, MODEL, T_COMPARE)
    assert value == pytest.approx(MIXED_DP_09_1E8, abs=1e-12)


def test_parity_delta_mixed_exact_matches_pure():
    pure = averaged_ground_probability(9, MODEL, T_COMPARE) - averaged_ground_probability(
        10, MODEL, T_COMPARE
    )
    assert parity_delta_mixed(9, None, MODEL, T_COMPARE) == pytest.approx(pure, abs=1e-15)
    with pytest.raises(ValueError):
        parity_delta_mixed(8, None, MODEL, T_COMPARE)


@pytest.mark.parametrize("delta", [1e-200, 1e-160, 5e-324])
def test_width_below_resolution_is_the_exact_state(delta):
    # 2 delta^2 is 0 or subnormal, where exp(-(m-N)^2 / 2 delta^2) would be 0/0
    # or overflow; the mixture is then the single target term
    prep = PreparationModel(9, delta)
    assert efficiency(prep.delta) == 1.0
    m_values, weights = prep.terms()
    assert m_values.tolist() == list(range(11))
    assert weights.tolist() == [0.0] * 9 + [1.0, 0.0]
    assert averaged_ground_probability_mixed(prep, MODEL, T_COMPARE) == (
        averaged_ground_probability_mixed(PreparationModel(9), MODEL, T_COMPARE))


@pytest.mark.parametrize(
    "n_target, delta", [(0, 0.5), (9, 0.7), (9, 30.0), (40, 3.0), (2001, DELTA_FOR_ETA_09)]
)
def test_mixture_key_bound_covers_every_term_of_non_zero_weight(n_target, delta):
    m_values, weights = PreparationModel(n_target, delta).terms()
    held = int(np.sum(m_values[weights > 0.0] // 2 + 1))
    assert held <= preparation._mixture_keys(n_target, delta) <= 1.1 * held + 20


def test_mixture_beyond_the_key_limit_is_rejected_at_construction():
    PreparationModel(9, 250.0)  # about 1.01e6 keys: accepted, and not built here
    for n_target, delta in ((9, 256.0), (9, 1e300), (9, 1.7976931348623157e308), (2001, 300.0)):
        with pytest.raises(ValueError, match="delta = .* above the limit of 1048576"):
            PreparationModel(n_target, delta)
