"""The parity sweeps against point-by-point evaluation.

The analytic modes evaluate a whole sweep in one kernel call; Monte-Carlo
points keep their own seeds and draws.  Each sweep is checked against the
per-point route, one ``FluctuationModel`` and one call per point.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ionparity import cli, fluctuations, preparation
from ionparity.dynamics import parity_times
from ionparity.fluctuations import FluctuationModel

G = 1e5

ANALYTIC = {"gamma": "gamma_exact", "gaussian": "gaussian_approx"}


def tau_sweep(**settings_) -> list[tuple]:
    config = {**cli.DEFAULTS["tau-sweep"], "out": None, **settings_}
    return cli.cmd_tau_sweep(config).rows


def eta_sweep(**settings_) -> list[tuple]:
    config = {**cli.DEFAULTS["eta-sweep"], "out": None, **settings_}
    return cli.cmd_eta_sweep(config).rows


def point_targets(n, eta):
    delta = None if eta is None or eta >= 1.0 else preparation.delta_from_efficiency(eta)
    return preparation.PreparationModel(n, delta), preparation.PreparationModel(n + 1, delta)


def point_probabilities(n, eta, model, t_compare):
    """(p_odd, p_even) of the targets n and n + 1 at one point, from one call."""
    return fluctuations.mixture_ground_probabilities(
        [prep.terms() for prep in point_targets(n, eta)], model, t_compare)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=10).map(lambda half: 2 * half + 1),
    mode=st.sampled_from(sorted(ANALYTIC)),
    eta=st.one_of(st.none(), st.floats(min_value=0.05, max_value=0.99)),
    log_tau_min=st.floats(min_value=-11.0, max_value=-7.0),
    decades=st.floats(min_value=0.0, max_value=2.0),
    steps=st.integers(min_value=1, max_value=6),
)
def test_tau_sweep_rows_equal_point_evaluation(n, mode, eta, log_tau_min, decades, steps):
    rows = tau_sweep(n=n, mode=mode, eta_prep=eta, tau_min=10.0**log_tau_min,
                     tau_max=10.0 ** (log_tau_min + decades), tau_steps=steps)
    t_compare = parity_times(n, G).comparison_time
    assert len(rows) == steps
    for tau, delta_p, p_odd, p_even in rows:
        model = FluctuationModel(G, tau, ANALYTIC[mode])
        upper, lower = point_probabilities(n, eta, model, t_compare)
        assert p_odd == pytest.approx(upper, abs=1e-15)
        assert p_even == pytest.approx(lower, abs=1e-15)
        assert delta_p == pytest.approx(upper - lower, abs=1e-15)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=10).map(lambda half: 2 * half + 1),
    mode=st.sampled_from(sorted(ANALYTIC)),
    taus=st.lists(st.floats(min_value=1e-10, max_value=1e-7), min_size=1, max_size=3),
    eta_min=st.floats(min_value=0.05, max_value=1.0),
    steps=st.integers(min_value=1, max_value=8),
)
def test_eta_sweep_rows_equal_point_evaluation(n, mode, taus, eta_min, steps):
    rows = eta_sweep(n=n, mode=mode, tau=taus, eta_min=eta_min, eta_steps=steps)
    t_compare = parity_times(n, G).comparison_time
    assert [(tau, eta) for tau, eta, _ in rows] == [
        (tau, eta) for tau in taus for eta in np.linspace(eta_min, 1.0, steps).tolist()
    ]
    for tau, eta, delta_p in rows:
        delta = None if eta >= 1.0 else preparation.delta_from_efficiency(eta)
        model = FluctuationModel(G, tau, ANALYTIC[mode])
        expected = preparation.parity_delta_mixed(n, delta, model, t_compare)
        assert delta_p == pytest.approx(expected, abs=1e-15)


def counting(monkeypatch, name):
    calls = []
    original = getattr(fluctuations, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(fluctuations, name, counted)
    return calls


@pytest.mark.parametrize("mode, kernel", [("gamma", "gamma_kernel"),
                                          ("gaussian", "gaussian_kernel")])
@pytest.mark.parametrize("argv", [["tau-sweep"], ["tau-sweep", "--eta-prep", "0.9"],
                                  ["eta-sweep"]], ids=["tau", "tau-mixed", "eta"])
def test_analytic_sweep_calls_the_kernel_once(argv, mode, kernel, monkeypatch, tmp_path):
    calls = counting(monkeypatch, kernel)
    other = counting(monkeypatch, "gaussian_kernel" if mode == "gamma" else "gamma_kernel")
    draws = counting(monkeypatch, "sample_pulse_areas")
    out = tmp_path / "sweep.csv"
    assert cli.main([*argv, "--mode", mode, "--out", str(out)]) == 0
    assert len(calls) == 1 and not other and not draws


@pytest.mark.parametrize("eta", [None, 0.7])
def test_monte_carlo_tau_sweep_draws_once_per_point(eta, monkeypatch):
    draws = counting(monkeypatch, "sample_pulse_areas")
    rows = tau_sweep(mode="mc", mc_samples=3000, tau_steps=4, seed=6, eta_prep=eta)
    assert len(draws) == len(rows) == 4
    t_compare = parity_times(9, G).comparison_time
    for (tau, delta_p, p_odd, p_even), seed in zip(rows, cli._point_seeds(6, 4)):
        model = FluctuationModel(G, tau, "monte_carlo", mc_samples=3000, seed=seed)
        upper, lower = point_probabilities(9, eta, model, t_compare)
        assert (p_odd, p_even) == pytest.approx((upper, lower), abs=1e-15)
        assert delta_p == pytest.approx(upper - lower, abs=1e-15)


def test_monte_carlo_eta_sweep_draws_once_per_point(monkeypatch):
    draws = counting(monkeypatch, "sample_pulse_areas")
    rows = eta_sweep(mode="mc", mc_samples=2000, tau=[1e-8, 1e-7], eta_steps=4, seed=3)
    assert len(draws) == len(rows) == 8
    t_compare = parity_times(9, G).comparison_time
    for (tau, eta, delta_p), seed in zip(rows, cli._point_seeds(3, 8)):
        delta = None if eta >= 1.0 else preparation.delta_from_efficiency(eta)
        model = FluctuationModel(G, tau, "monte_carlo", mc_samples=2000, seed=seed)
        expected = preparation.parity_delta_mixed(9, delta, model, t_compare)
        assert delta_p == pytest.approx(expected, abs=1e-15)


def test_monte_carlo_eta_point_keys_only_its_own_targets(monkeypatch):
    # the cosine rows of a point are the distinct keys of its own two targets
    draws = counting(monkeypatch, "sample_pulse_areas")
    seen = []
    original = fluctuations._kernels

    def recording(omegas, model, t, rng=None, taus=None):
        seen.append(omegas.size)
        return original(omegas, model, t, rng, taus)

    monkeypatch.setattr(fluctuations, "_kernels", recording)
    eta_sweep(mode="mc", mc_samples=500, tau=[1e-8], eta_min=0.5, eta_steps=3, seed=1,
              workers=1)
    expected = [fluctuations._mixture_matrix([prep.terms() for prep in point_targets(9, eta)])
                [0].size for eta in np.linspace(0.5, 1.0, 3).tolist()]
    assert seen == expected and len(draws) == 3
