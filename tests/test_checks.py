import itertools
import math
import threading
import time

import numpy as np
import pytest

from ionparity import checks, dynamics, fluctuations, preparation, propagators


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

    result = checks.monte_carlo_vs_gamma(seed=0, kernel=sign_flipped)
    assert not result.passed


def test_monte_carlo_check_runs_the_sweeps_sampler(monkeypatch):
    # deliberately fault the sampler every Monte-Carlo sweep runs: shift each
    # mean by 6 of its standard errors, and its (omega, 2 omega) partner row
    # with it so the sample variance the check reads stays the same
    original = fluctuations._monte_carlo

    def biased(omegas, model, t, rng=None, sums=None):
        mean, twice = original(omegas, model, t, rng, sums)
        shifted = mean + 6.0 * math.sqrt(((1.0 + twice) / 2.0 - mean**2) / model.mc_samples)
        return np.array([shifted, twice + 2.0 * (shifted**2 - mean**2)])

    assert checks.monte_carlo_vs_gamma(seed=0).passed
    monkeypatch.setattr(fluctuations, "_monte_carlo", biased)
    result = checks.monte_carlo_vs_gamma(seed=0)
    assert not result.passed and result.measured > 4.0


def test_unitarity_check_reports_period_map_defect():
    result = checks.lamb_dicke_unitarity()
    assert result.passed
    assert result.detail.startswith("one-period map max|M^dag M - I| = ")
    assert 0.0 < float(result.detail.rsplit("= ", 1)[1]) <= 1e-10


def test_unitarity_check_reads_the_maps_its_propagation_built(monkeypatch):
    maps, builds = [], []
    build_map, build_hamiltonian = propagators.one_period_map, propagators.LambDickeHamiltonian

    def counted_map(h_ld, grid=None, prefixes=None):
        maps.append(build_map(h_ld, grid, prefixes))
        return maps[-1]

    def counted_hamiltonian(*args, **kwargs):
        builds.append(args)
        return build_hamiltonian(*args, **kwargs)

    monkeypatch.setattr(propagators, "one_period_map", counted_map)
    monkeypatch.setattr(propagators, "LambDickeHamiltonian", counted_hamiltonian)
    result = checks.lamb_dicke_unitarity()
    # one build, at the drive's own steps, per ratio of the default suite
    ratios = checks.RWA_SUITES[False][0]
    assert (len(maps), len(builds)) == (len(ratios), len(ratios))
    monkeypatch.undo()
    defects = []
    for ratio, period_map in zip(ratios, maps):
        drive = propagators.Drive(1.0, ratio, 0.05, checks.RWA_ORDER)
        h_ld = propagators.LambDickeHamiltonian(drive, 4, 4)
        independent = propagators.one_period_map(h_ld)
        assert np.array_equal(period_map, independent)
        defects.extend(np.max(np.abs(m.conj().T @ m - np.eye(len(m)))) for m in independent)
    assert result.detail == f"one-period map max|M^dag M - I| = {max(defects):.3e}"


def test_drive_checks_fail_when_the_propagator_gives_up(monkeypatch):
    # the propagator drifts by 2e-7 at the first time, at every step count,
    # so that no refinement mends it
    seen_steps = []
    stepped = propagators._stepped_states

    def drifting(h_ld, y0, times, steps):
        seen_steps.append(steps)
        states, period_map = stepped(h_ld, y0, times, steps)
        states[0] *= 1.0 + 1e-7
        return states, period_map

    monkeypatch.setattr(propagators, "_stepped_states", drifting)
    drives = checks._suite_drives(1.0, 0.05, False)
    # the first drive is redone at 2, 4 and 8 times its steps, then gives up
    steps = propagators.Drive(1.0, 25.0, 0.05, checks.RWA_ORDER).steps
    assert seen_steps == [steps, 2 * steps, 4 * steps, 8 * steps]
    assert drives == "norm drift 2.000e-07 exceeds 1e-08"
    for result in (checks.lamb_dicke_unitarity(drives=drives),
                   checks.rwa_deviation_decreases(drives=drives),
                   checks.lamb_dicke_unitarity()):
        assert (result.measured, result.passed) == (math.inf, False)
        assert result.detail == "norm drift 2.000e-07 exceeds 1e-08"


# at the default settings no drive refines; past the measured edges (eta_ld
# 0.59 on the default suite, 0.30 with --full) the drifting ones do
@pytest.mark.parametrize("full", [False, True])
@pytest.mark.parametrize("eta_ld", [0.3, 0.6, 0.99])
def test_drive_rows_pass_up_to_eta_ld_0_99(eta_ld, full):
    drives = checks._suite_drives(1.0, eta_ld, full)
    assert not isinstance(drives, str), drives
    unitarity = checks.lamb_dicke_unitarity(1.0, eta_ld, full, drives)
    rwa = checks.rwa_deviation_decreases(1.0, eta_ld, full, drives)
    assert unitarity.passed and rwa.passed, (unitarity, rwa)
    assert rwa.detail.startswith("deviations: ")


def test_rwa_check_sees_a_drive_coupling_off_by_one_part_in_a_thousand(monkeypatch):
    # W(t) scaled by 1 + 1e-3 keeps the map unitary, so the norm-based rows
    # pass; only the deviation from the pair-exchange model shows it
    original = propagators.LambDickeHamiltonian._sector_couplings

    def scaled(self, t):
        return [(upper * (1.0 + 1e-3), lower * (1.0 + 1e-3)) for upper, lower in original(self, t)]

    assert checks.rwa_deviation_decreases().passed
    monkeypatch.setattr(propagators.LambDickeHamiltonian, "_sector_couplings", scaled)
    assert checks.lamb_dicke_unitarity().passed
    assert checks.static_drive_limit().passed
    result = checks.rwa_deviation_decreases()
    assert not result.passed and result.measured > 1.0


def test_batched_checks_detect_a_faulted_closed_form(monkeypatch):
    # one |-> amplitude of the closed form off by 1e-6 at every time
    original = dynamics.evolve_closed_form

    def faulted(n_total, g, times):
        minus, plus = original(n_total, g, times)
        minus[:, n_total, 0] += 1e-6
        return minus, plus

    monkeypatch.setattr(dynamics, "evolve_closed_form", faulted)
    state = {r.name: r for r in checks.closed_form_vs_propagator(seed=0)}
    assert not state["closed_form_vs_propagator_state"].passed
    assert not checks.norm_conservation(seed=0).passed
    assert not checks.entropy_matches_reduced_density(seed=0).passed


def test_entropy_check_reads_the_off_diagonal_coherence(monkeypatch):
    # moving a |+> amplitude onto a cell that |-> also occupies keeps both
    # populations, so only <+|-> can tell the state from the closed form
    original = dynamics.evolve_closed_form

    def coherent(n_total, g, times):
        minus, plus = original(n_total, g, times)
        plus[:, n_total - 1, 1] = plus[:, n_total - 2, 0]
        plus[:, n_total - 2, 0] = 0.0
        return minus, plus

    monkeypatch.setattr(dynamics, "evolve_closed_form", coherent)
    assert not checks.entropy_matches_reduced_density(seed=0).passed


def test_closed_form_checks_see_a_wrong_binomial_amplitude(monkeypatch):
    # the propagator's initial state must not be built by the magnitude
    # routine the closed form reads, or a wrong amplitude would pass unseen
    original = dynamics.symmetric_binomial_amplitudes

    def shifted(*args):
        magnitudes = original(*args).copy()
        magnitudes[1] += 1e-6
        return magnitudes

    monkeypatch.setattr(dynamics, "symmetric_binomial_amplitudes", shifted)
    failed = [r.name for r in checks.closed_form_vs_propagator(seed=0) if not r.passed]
    assert failed == ["closed_form_vs_propagator_probability", "closed_form_vs_propagator_state"]


def test_exact_preparation_limit_compares_several_terms_with_one():
    # at the check's width neighbouring terms keep a non-zero weight, so the
    # mixture differs from the exact state and the check can fail
    _, weights = preparation.PreparationModel(9, delta=checks.NARROW_DELTA).terms()
    assert np.count_nonzero(weights) > 1
    result = checks.exact_preparation_limit()
    assert result.passed and result.measured > 0.0


def test_rabi_rate_check_sees_a_wrong_rate(monkeypatch):
    # rates of 3 g sqrt((N-k)k) instead of 2 g sqrt((N-k)k) are still
    # symmetric under k -> N-k, so only the pair-exchange element tells
    original = dynamics.rabi_spectrum
    result = checks.rabi_frequency_symmetry()
    assert (result.measured, result.passed) == (0.0, True)
    monkeypatch.setattr(dynamics, "rabi_spectrum", lambda n_total, g: original(n_total, 1.5 * g))
    result = checks.rabi_frequency_symmetry()
    assert not result.passed and result.measured > 1.0


def test_mixture_linearity_sees_a_merge_that_drops_shared_keys(monkeypatch):
    # a merge in which the first term holding a key p wins, where the weights
    # of every term holding it must be summed; p = 0 alone is held by all
    original = fluctuations._mixture_matrix

    def first_term_wins(mixtures):
        ((totals, weights),) = mixtures
        columns = {}
        for n, weight in zip(totals, weights):
            if weight != 0.0:
                omegas, (row,) = original([((n,), (weight,))])
                for omega, value in zip(omegas.tolist(), row.tolist()):
                    columns.setdefault(omega, value)
        return np.array(list(columns)), np.array([list(columns.values())])

    assert checks.mixture_linearity().passed
    monkeypatch.setattr(fluctuations, "_mixture_matrix", first_term_wins)
    assert not checks.mixture_linearity().passed


def test_static_drive_limit_sees_a_static_term_off_by_one_part_in_a_million(monkeypatch):
    class Faulted(propagators.LambDickeHamiltonian):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.blocks[self.harmonics == 0.0] *= 1.0 + 1e-6

    assert checks.static_drive_limit().passed
    monkeypatch.setattr(propagators, "LambDickeHamiltonian", Faulted)
    result = checks.static_drive_limit()
    assert not result.passed and result.measured > 1e-9


def test_gamma_vs_gaussian_broadcast_equals_the_scalar_loop():
    # the kernels map arrays elementwise, so the broadcast reads the same bits
    worst = 0.0
    for omega in checks.KERNEL_OMEGAS:
        for tau in checks.KERNEL_TAUS:
            for shape in checks.KERNEL_SHAPES:
                t = shape * tau
                exact = fluctuations.gamma_kernel(omega, checks.KERNEL_G, tau, t)
                approx = fluctuations.gaussian_kernel(omega, checks.KERNEL_G, tau, t)
                envelope = (1.0 + (omega * checks.KERNEL_G * tau) ** 2) ** (-t / (2.0 * tau))
                worst = max(worst, abs(exact - approx) / envelope)
    assert checks.gamma_vs_gaussian().measured == worst


def test_gamma_vs_gaussian_sees_a_gaussian_exponent_without_its_half(monkeypatch):
    def no_half(omega, g, tau, t):
        return np.cos(omega * g * t) * np.exp(-(omega**2) * g**2 * t * tau)

    assert checks.gamma_vs_gaussian().passed
    monkeypatch.setattr(fluctuations, "gaussian_kernel", no_half)
    assert not checks.gamma_vs_gaussian().passed


def test_fluctuation_free_limit_sees_a_wrong_area_frequency(monkeypatch):
    # area frequency 2 sqrt(p) where the phases 2 f_k t need 4 sqrt(p).  The
    # replacement keeps no cache, so the cached real entries stay as they are.
    original = fluctuations._area_terms

    def half_frequency(n_total):
        keys, _, weights = original(n_total)
        return keys, 2.0 * np.sqrt(keys), weights

    assert checks.fluctuation_free_limit().passed
    monkeypatch.setattr(fluctuations, "_area_terms", half_frequency)
    assert not checks.fluctuation_free_limit().passed


def test_fluctuation_free_limit_sees_a_kernel_phase_without_g(monkeypatch):
    # cos(omega t) for cos(omega g t), one row per time of the check's axis:
    # at g = 1 the two would be the same
    def without_g(omegas, model, t, rng=None, taus=None, sums=None):
        return np.cos(np.multiply.outer(t, omegas))

    monkeypatch.setattr(fluctuations, "_kernels", without_g)
    result = checks.fluctuation_free_limit()
    assert not result.passed and result.measured > 0.5


def test_fluctuation_free_limit_makes_one_kernel_call_per_mode(monkeypatch):
    # every time of one mode in one array call, and no scalar average
    calls = []
    kernels = fluctuations._kernels

    def counted(omegas, model, t, rng=None, taus=None, sums=None):
        calls.append((model.mode, np.shape(t)))
        return kernels(omegas, model, t, rng, taus, sums)

    def scalar(*args, **kwargs):
        raise AssertionError("a scalar averaged_ground_probability call was made")

    monkeypatch.setattr(fluctuations, "_kernels", counted)
    monkeypatch.setattr(fluctuations, "averaged_ground_probability", scalar)
    assert checks.fluctuation_free_limit().passed
    assert calls == [(mode, (25,)) for mode in fluctuations.MODES]


def test_mixture_truncation_sees_a_cut_at_n_plus_ceil_delta(monkeypatch):
    # the default support m <= N + ceil(Delta) instead of N + ceil(8 Delta)
    def short_cut(self, extra=0):
        m = np.arange(0, self.n_target + math.ceil(self.delta) + extra + 1)
        weights = np.exp(-((m - self.n_target) ** 2) / (2.0 * self.delta**2))
        return m, weights / weights.sum()

    assert checks.mixture_truncation().passed
    monkeypatch.setattr(preparation.PreparationModel, "terms", short_cut)
    assert not checks.mixture_truncation().passed


def test_exact_preparation_limit_sees_a_mixture_off_its_target(monkeypatch):
    # the narrow mixture centred on N + 1, the exact state still on N
    original = preparation.PreparationModel.terms

    def off_target(self, extra=0):
        m, weights = original(self, extra)
        return m, np.roll(weights, 1)

    assert checks.exact_preparation_limit().passed
    monkeypatch.setattr(preparation.PreparationModel, "terms", off_target)
    assert not checks.exact_preparation_limit().passed


def _serial_battery(seed: int, full: bool) -> list[checks.CheckResult]:
    """The 13 check functions of run_all, called one by one on this thread."""
    return [
        *checks.closed_form_vs_propagator(seed),
        checks.norm_conservation(seed),
        checks.entropy_matches_reduced_density(seed),
        checks.rabi_frequency_symmetry(),
        checks.fluctuation_free_limit(),
        checks.gamma_vs_gaussian(),
        checks.monte_carlo_vs_gamma(seed),
        checks.mixture_linearity(),
        checks.mixture_truncation(),
        checks.exact_preparation_limit(),
        checks.static_drive_limit(),
        checks.lamb_dicke_unitarity(full=full),
        checks.rwa_deviation_decreases(full=full),
    ]


def _rows(results: list[checks.CheckResult]) -> list[tuple]:
    return [(r.name, r.measured.hex(), r.bound, r.passed, r.detail) for r in results]


# seeds 2 and 14 fail the Monte-Carlo row, 3 passes every row
@pytest.mark.parametrize("seed", [2, 3, 14])
def test_concurrent_battery_gives_what_the_serial_one_gives(monkeypatch, seed):
    ran = []
    _sampler_on_threads(monkeypatch, lambda omega, tau, calling: ran.append((omega, tau)))
    for full in (False, True):
        serial = _rows(_serial_battery(seed, full))
        ran.clear()
        assert _rows(checks.run_all(seed=seed, full=full)) == serial
        # every cell ran once, on one thread or the other
        assert sorted(ran) == sorted(itertools.product(checks.MC_OMEGAS, checks.MC_TAUS))
    assert dict((name, ok) for name, _, _, ok, _ in serial)["monte_carlo_vs_gamma"] == (seed == 3)


def _blas_threads() -> int | None:
    threads = checks._openblas_threads()
    return None if threads is None else threads[0]()


def test_battery_raises_the_monte_carlo_error_and_leaves_no_thread(monkeypatch):
    threads_before, blas_before = threading.active_count(), _blas_threads()
    # as a cell summed on this thread would leave it
    fluctuations._tiles.tile = np.empty(fluctuations.MC_BLOCK_PAIRS)
    checks.run_all(seed=0)
    assert (threading.active_count(), _blas_threads()) == (threads_before, blas_before)
    # nor a Monte-Carlo tile resident on the calling thread
    assert not hasattr(fluctuations._tiles, "tile")

    error = RuntimeError("sampler broke")

    def broken(seed, estimates=None):
        raise error

    monkeypatch.setattr(checks, "monte_carlo_vs_gamma", broken)
    with pytest.raises(RuntimeError) as raised:
        checks.run_all(seed=0)
    assert raised.value is error
    assert (threading.active_count(), _blas_threads()) == (threads_before, blas_before)


def _sampler_on_threads(monkeypatch, on_cell):
    """Run ``on_cell(omega, tau, on_calling_thread)`` before each Monte-Carlo
    cell's draws."""
    original = fluctuations.monte_carlo_cosine
    calling = threading.get_ident()

    def watched(omega, t, model, rng=None):
        on_cell(omega, model.tau, threading.get_ident() == calling)
        return original(omega, t, model, rng)

    monkeypatch.setattr(fluctuations, "monte_carlo_cosine", watched)


@pytest.mark.parametrize("on_calling_thread", [False, True])
def test_battery_raises_a_cell_error_from_either_thread(monkeypatch, on_calling_thread):
    threads_before, blas_before = threading.active_count(), _blas_threads()
    error = RuntimeError("cell broke")

    def on_cell(omega, tau, calling):
        if calling == on_calling_thread:
            raise error
        if on_calling_thread:
            time.sleep(0.05)  # so that the calling thread is left cells to take

    _sampler_on_threads(monkeypatch, on_cell)
    with pytest.raises(RuntimeError) as raised:
        checks.run_all(seed=0)
    assert raised.value is error
    assert (threading.active_count(), _blas_threads()) == (threads_before, blas_before)


def test_a_failing_row_stops_the_cells_not_started(monkeypatch):
    threads_before, blas_before = threading.active_count(), _blas_threads()
    error = RuntimeError("row broke")
    failed = threading.Event()
    ran = []

    def on_cell(omega, tau, calling):
        ran.append((omega, tau))
        assert failed.wait(timeout=30.0)  # the worker is on its first cell when the row fails

    def broken():
        failed.set()
        raise error

    _sampler_on_threads(monkeypatch, on_cell)
    monkeypatch.setattr(checks, "fluctuation_free_limit", broken)
    with pytest.raises(RuntimeError) as raised:
        checks.run_all(seed=0)
    assert raised.value is error
    assert ran == [(checks.MC_OMEGAS[0], checks.MC_TAUS[0])]
    assert (threading.active_count(), _blas_threads()) == (threads_before, blas_before)


# the worker starts on the first cell at once; the calling thread cancels the
# last and runs it, the worker being held on its first cell until that is done
@pytest.mark.parametrize("biased", [(0.5, 1e-4), (8.0, 1e-2)])
def test_one_cell_biased_by_six_standard_errors_fails_the_battery_row(monkeypatch, biased):
    last_done = threading.Event()
    taken_by = []

    def on_cell(omega, tau, calling):
        if (omega, tau) == biased:
            taken_by.append(calling)
        if not calling and biased == (8.0, 1e-2):
            assert last_done.wait(timeout=30.0)

    _sampler_on_threads(monkeypatch, on_cell)
    original = fluctuations._monte_carlo

    def biased_cell(omegas, model, t, rng=None, sums=None):
        mean, twice = original(omegas, model, t, rng, sums)
        if (omegas[0], model.tau) != biased:
            return np.array([mean, twice])
        if biased == (8.0, 1e-2):
            last_done.set()
        shifted = mean + 6.0 * math.sqrt(((1.0 + twice) / 2.0 - mean**2) / model.mc_samples)
        return np.array([shifted, twice + 2.0 * (shifted**2 - mean**2)])

    monkeypatch.setattr(fluctuations, "_monte_carlo", biased_cell)
    rows = {r.name: r for r in checks.run_all(seed=3)}
    assert taken_by == [biased == (8.0, 1e-2)]
    assert not rows["monte_carlo_vs_gamma"].passed
    assert rows["monte_carlo_vs_gamma"].measured > 4.0


def test_each_battery_builds_each_suite_drive_once(monkeypatch):
    built = []
    original = propagators._drive_states

    def counted(initial, drive, times):
        built.append(drive.nu)
        return original(initial, drive, times)

    monkeypatch.setattr(propagators, "_drive_states", counted)
    for full in (False, True, False):
        built.clear()
        checks.run_all(seed=3, full=full)
        assert built == list(checks.RWA_SUITES[full][0])


def test_drive_checks_run_on_one_blas_thread(monkeypatch):
    threads = checks._openblas_threads()
    if threads is None:
        pytest.skip("numpy carries no bundled OpenBLAS")
    get, set_ = threads
    seen = []
    original = checks.lamb_dicke_unitarity

    def counted(*args):
        seen.append(get())
        return original(*args)

    monkeypatch.setattr(checks, "lamb_dicke_unitarity", counted)
    previous = get()
    set_(2)  # so that a battery which left the count alone would read 2
    try:
        checks.run_all(seed=0)
        assert seen == [1] and get() == 2
    finally:
        set_(previous)


def test_one_blas_thread_is_a_no_op_without_openblas(monkeypatch):
    monkeypatch.setattr(checks, "_openblas_threads", lambda: None)
    ran = []
    with checks._one_blas_thread():
        ran.append(True)
    assert ran == [True]
