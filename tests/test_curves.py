"""The parity sweeps against point-by-point evaluation.

The analytic modes evaluate a whole sweep in one kernel call; Monte-Carlo
points keep their own seeds and draws, which the worker pool draws and sums
one block at a time.  Each sweep is checked against the per-point route, one
``FluctuationModel`` and one call per point.
"""

import itertools
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ionparity import cli, fluctuations, preparation, sweep
from ionparity.dynamics import comparison_time
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


def point_probabilities(n, eta, model, t_compare, rng=None):
    """(p_odd, p_even) of the targets n and n + 1 at one point, from one call."""
    return fluctuations.mixture_ground_probabilities(
        [prep.terms() for prep in point_targets(n, eta)], model, t_compare, rng)


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
    t_compare = comparison_time(n, G)
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
    t_compare = comparison_time(n, G)
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
    t_compare = comparison_time(9, G)
    for (tau, delta_p, p_odd, p_even), seed in zip(rows, cli._point_seeds(6, 4)):
        model = FluctuationModel(G, tau, "monte_carlo", mc_samples=3000, seed=seed)
        upper, lower = point_probabilities(9, eta, model, t_compare)
        assert (p_odd, p_even) == pytest.approx((upper, lower), abs=1e-15)
        assert delta_p == pytest.approx(upper - lower, abs=1e-15)


def test_monte_carlo_eta_sweep_draws_once_per_point(monkeypatch):
    draws = counting(monkeypatch, "sample_pulse_areas")
    rows = eta_sweep(mode="mc", mc_samples=2000, tau=[1e-8, 1e-7], eta_steps=4, seed=3)
    assert len(draws) == len(rows) == 8
    t_compare = comparison_time(9, G)
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

    def recording(omegas, model, t, rng=None, taus=None, sums=None):
        seen.append(omegas.size)
        return original(omegas, model, t, rng, taus, sums)

    monkeypatch.setattr(fluctuations, "_kernels", recording)
    eta_sweep(mode="mc", mc_samples=500, tau=[1e-8], eta_min=0.5, eta_steps=3, seed=1,
              workers=1)
    expected = [fluctuations._mixture_matrix([prep.terms() for prep in point_targets(9, eta)])
                [0].size for eta in np.linspace(0.5, 1.0, 3).tolist()]
    assert seen == expected and len(draws) == 3


def serial_route(taus, etas, samples, seed):
    """(p_odd, p_even) of every (tau, eta) point, tau-major, one call each,
    drawn from the point's own default_rng(seed)."""
    t_compare = comparison_time(9, G)
    points = [(tau, eta) for tau in taus for eta in etas]
    return [tuple(point_probabilities(9, eta, FluctuationModel(
                G, tau, "monte_carlo", mc_samples=samples, seed=point_seed),
                t_compare, np.random.default_rng(point_seed)))
            for (tau, eta), point_seed in zip(points, cli._point_seeds(seed, len(points)))]


@pytest.mark.parametrize("samples", [1, 2**16 + 1, 150_000])
def test_monte_carlo_sweeps_equal_the_serial_route_bit_for_bit(samples, monkeypatch):
    # a partial last block, and (in the eta sweep) points whose area is set
    # because the shape t/tau or the scale g*tau overflows.  The final
    # weighted sums often round a last-bit change of one mean away, so the
    # sampled mean rows of both routes are compared too.
    means = []
    original = fluctuations._monte_carlo

    def recorded(*args):
        means.append(original(*args).tolist())
        return np.array(means[-1])

    monkeypatch.setattr(fluctuations, "_monte_carlo", recorded)
    taus = np.logspace(-9.0, -8.0, 2).tolist()
    tau_points = serial_route(taus, [0.9], samples, 4)
    eta_taus = [1e-320, 1e-300, 1e-8, 1e300, 1e304]
    eta_points = serial_route(eta_taus, [1.0], samples, 5)
    serial_means = means[:]
    assert len(serial_means) == 5  # the points at tau 1e-320 and 1e304 are set
    for workers in (1, 2, 3):
        means.clear()
        rows = tau_sweep(mode="mc", mc_samples=samples, tau_min=1e-9, tau_max=1e-8,
                         tau_steps=2, eta_prep=0.9, seed=4, workers=workers)
        assert rows == [(tau, upper - lower, upper, lower)
                        for tau, (upper, lower) in zip(taus, tau_points)]
        rows = eta_sweep(mode="mc", mc_samples=samples, tau=eta_taus, eta_min=1.0,
                         eta_steps=1, seed=5, workers=workers)
        assert rows == [(tau, 1.0, upper - lower)
                        for tau, (upper, lower) in zip(eta_taus, eta_points)]
        assert means == serial_means


def test_monte_carlo_sweep_memory_does_not_grow_with_the_sample_count():
    # each worker thread holds one tile and the one draw block it sums: a
    # task draws its own block, so the tasks submitted but not yet run hold
    # none.  The bound keeps two more blocks per worker of slack (the peak
    # read 5.0 MiB here, and 6.0 MiB when the calling thread drew the blocks
    # of the window), plus 256 KiB for the rows, seeds and mixtures.
    workers = 2
    tile, block = 8 * fluctuations.MC_BLOCK_PAIRS, 8 * fluctuations.MC_DRAW_BLOCK

    def peak(samples):
        tracemalloc.start()
        try:
            tau_sweep(mode="mc", mc_samples=samples, tau_steps=1, seed=2, workers=workers)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1 << 10)  # first-call allocations of numpy's random module
    small, large = peak(200_000), peak(2_000_000)
    # 2e5 draws are only 4 blocks, 3 whole and a partial one, so they may not
    # fill the window that 2e6 draws fill: the peaks differ by less than it
    assert abs(large - small) <= 2 * workers * block
    assert max(small, large) <= workers * tile + 3 * workers * block + (1 << 18)


def test_monte_carlo_sweep_holds_no_row_of_sums_per_point():
    # A sweep of 1-draw points finishes each point as its block's row of
    # cosine sums arrives from the pool, so it holds a window of such rows,
    # not one per point.  256 bytes a point cover the point's seed and
    # probabilities and its row of the table (about 210 in all); holding a
    # row of sums per point took about 680.  On one worker the tile is the
    # calling thread's, made by the first call.
    def peak(points):
        tracemalloc.start()
        try:
            tau_sweep(mode="mc", mc_samples=1, tau_steps=points, eta_prep=0.5, workers=1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(3)
    assert peak(2000) - peak(500) <= 1500 * 256


def test_monte_carlo_eta_sweep_curves_stay_flat_as_their_points_double(monkeypatch):
    # The curves of an --mc-samples 1 eta-sweep hold a window of block sums
    # and one pair's keys and weights at a time, so doubling the points, 300
    # to 600, adds only each point's seed and probabilities: 128 bytes a
    # point bound the 56 they take.  Holding every block's sums and every
    # pair's weights took about 1350 bytes a point.
    peaks, curves = [], cli._parity_curves

    def traced(*args):
        tracemalloc.start()
        try:
            return curves(*args)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    monkeypatch.setattr(cli, "_parity_curves", traced)
    for steps in (10, 100, 200):  # the first run makes the calling thread's tile
        eta_sweep(mode="mc", mc_samples=1, eta_steps=steps, workers=1)
    assert peaks[2] - peaks[1] <= 300 * 128


MC_SETTINGS = dict(mode="mc", mc_samples=8 * 512 - 100, tau_min=1e-9, tau_max=1e-8,
                   tau_steps=2, eta_prep=0.9, seed=7)


def test_monte_carlo_sweep_blocks_may_finish_in_any_order(monkeypatch):
    # Two points of 8 blocks each on two workers.  Every fourth block to
    # start is held back while the other worker sums the blocks after it, so
    # blocks finish out of draw order; each point adds its sums in draw
    # order, so the rows are those of one worker.
    monkeypatch.setattr(fluctuations, "MC_DRAW_BLOCK", 512)
    original, finished = fluctuations._cosine_sums, []

    def recorded(ladder, draws):
        sums = original(ladder, draws)
        finished.append(float(draws[0]))
        return sums

    monkeypatch.setattr(fluctuations, "_cosine_sums", recorded)
    serial = tau_sweep(**MC_SETTINGS, workers=1)
    in_draw_order, started = finished[:], itertools.count()
    assert len(in_draw_order) == 16

    def held_back(ladder, draws):
        if next(started) % 4 == 0:
            time.sleep(0.05)
        return recorded(ladder, draws)

    monkeypatch.setattr(fluctuations, "_cosine_sums", held_back)
    monkeypatch.setattr(sweep, "_usable_cpus", lambda: 2)
    finished.clear()
    assert tau_sweep(**MC_SETTINGS, workers=2) == serial
    assert finished != in_draw_order and sorted(finished) == sorted(in_draw_order)


def test_monte_carlo_sweep_sums_in_draw_order_whatever_task_draws_first(monkeypatch):
    # A pool that runs its tasks last to first: the last task of a point then
    # takes the point's first block.  The point still adds its sums in draw
    # order, not in task order, so the rows are those of the ordered pool.
    monkeypatch.setattr(fluctuations, "MC_DRAW_BLOCK", 512)
    serial = tau_sweep(**MC_SETTINGS, workers=1)

    def last_to_first(fn, items, workers):
        items = list(items)
        results = [None] * len(items)
        for index in reversed(range(len(items))):
            results[index] = fn(items[index])
        return results

    monkeypatch.setattr(cli, "pool_map", last_to_first)
    assert tau_sweep(**MC_SETTINGS, workers=1) == serial
