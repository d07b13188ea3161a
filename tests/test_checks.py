import math

import numpy as np

from ionparity import checks, dynamics, fluctuations, preparation, propagators
from ionparity.states import PhysicalParams


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

    def biased(omegas, model, t, rng):
        mean, twice = original(omegas, model, t, rng)
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


def test_unitarity_check_reads_the_map_its_propagation_built(monkeypatch):
    maps, builds = [], []
    build_map, build_hamiltonian = propagators.one_period_map, propagators.LambDickeHamiltonian

    def counted_map(h_ld):
        maps.append(build_map(h_ld))
        return maps[-1]

    def counted_hamiltonian(*args, **kwargs):
        builds.append(args)
        return build_hamiltonian(*args, **kwargs)

    monkeypatch.setattr(propagators, "one_period_map", counted_map)
    monkeypatch.setattr(propagators, "LambDickeHamiltonian", counted_hamiltonian)
    result = checks.lamb_dicke_unitarity()
    assert (len(maps), len(builds)) == (1, 1)
    monkeypatch.undo()
    params = PhysicalParams(omega=1.0, nu=50.0, eta_ld=0.05)
    independent = propagators.one_period_map(propagators.LambDickeHamiltonian(params, 3, 5, 5))
    assert np.array_equal(maps[0], independent)
    defect = np.max(np.abs(independent.conj().T @ independent - np.eye(len(independent))))
    assert result.detail == f"one-period map max|M^dag M - I| = {defect:.3e}"


def test_drive_checks_fail_when_the_propagator_gives_up(monkeypatch):
    # at eta_ld = 0.99 the RK4 norm drift exceeds what the propagator accepts
    result = checks.rwa_deviation_decreases(eta_ld=0.99)
    assert (result.measured, result.passed) == (math.inf, False)
    assert result.detail.startswith("norm drift ")

    def drifting(*args, **kwargs):
        raise RuntimeError("norm drift 2.000e-08 exceeds 1e-08")

    monkeypatch.setattr(checks.propagators, "_drive_states", drifting)
    result = checks.lamb_dicke_unitarity()
    assert (result.measured, result.passed) == (math.inf, False)
    assert result.detail == "norm drift 2.000e-08 exceeds 1e-08"


def test_rwa_check_sees_a_drive_coupling_off_by_one_part_in_a_thousand(monkeypatch):
    # W(t) scaled by 1 + 1e-3 keeps the map unitary, so the norm-based rows
    # pass; only the deviation from the pair-exchange model shows it
    original = propagators.LambDickeHamiltonian._couplings

    def scaled(self, t):
        coupling_block = original(self, t)[0] * (1.0 + 1e-3)
        return coupling_block, coupling_block.conj().T

    assert checks.rwa_deviation_decreases().passed
    monkeypatch.setattr(propagators.LambDickeHamiltonian, "_couplings", scaled)
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
    # cos(omega t) for cos(omega g t): at g = 1 the two would be the same
    def without_g(omegas, model, t, rng=None, taus=None):
        return np.cos(omegas * t)

    monkeypatch.setattr(fluctuations, "_kernels", without_g)
    result = checks.fluctuation_free_limit()
    assert not result.passed and result.measured > 0.5


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
