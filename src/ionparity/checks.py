"""Cross-validation battery: every closed form checked against an
independent numerical route, each check reporting its measured error
against a fixed bound.

The closed-form side of a check is evaluated over all of one N's sample
times in one array call; the numerical route it is compared with keeps
its own per-time calls, so the two stay independent."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import dynamics, fluctuations, preparation, propagators
from .states import PhysicalParams, TwoModeState, VibronicState

# Closed-form amplitudes oscillate at 2 g sqrt((N-k)k); the pair-exchange
# propagator rotates its blocks at coupling * sqrt(n_a n_b).
CLOSED_FORM_COUPLING_FACTOR = 2.0


@dataclass(frozen=True)
class CheckResult:
    name: str
    measured: float
    bound: float
    passed: bool
    detail: str = ""


def _result(name: str, measured: float, bound: float, detail: str = "") -> CheckResult:
    measured = float(measured)
    return CheckResult(name, measured, float(bound), measured <= bound, detail)


def _initial_state(n_total: int, cutoff: int | None = None) -> VibronicState:
    """Binomial state sum_k sqrt(C(N, k) / 2^N) |N-k, k>|-> from exact integers,
    so the propagators start from amplitudes that share no routine with the
    closed forms they are checked against (N <= 20 here)."""
    cut = n_total if cutoff is None else cutoff
    minus = np.zeros((cut + 1, cut + 1), dtype=np.complex128)
    for k in range(n_total + 1):
        minus[n_total - k, k] = math.sqrt(math.comb(n_total, k) / 2**n_total)
    return VibronicState(TwoModeState(minus), TwoModeState(np.zeros_like(minus)))


def _squared_norms(grids: np.ndarray) -> np.ndarray:
    """Squared norm of each grid in a (times, rows, cols) stack."""
    return (np.abs(grids) ** 2).reshape(len(grids), -1).sum(axis=1)


def closed_form_vs_propagator(
    seed: int = 0, n_range: Sequence[int] = range(1, 7), times_per_n: int = 50, g: float = 1.0
) -> list[CheckResult]:
    """Closed-form probability and state amplitudes against the exact
    block propagator, over random times in [0, 10/g].

    The closed form is evaluated over each N's times at once; the
    propagator runs once per time."""
    rng = np.random.default_rng(seed)
    worst_prob = 0.0
    worst_state = 0.0
    for n in n_range:
        initial = _initial_state(n)
        times = rng.uniform(0.0, 10.0 / g, size=times_per_n)
        minus, plus = dynamics._closed_form_grids(n, g, times, n, n)
        probabilities = dynamics.ground_probability(n, g, times)
        for t, ref_minus, ref_plus, probability in zip(times, minus, plus, probabilities):
            evolved = propagators.propagate_effective(
                initial, CLOSED_FORM_COUPLING_FACTOR * g, float(t)
            )
            worst_prob = max(worst_prob, abs(evolved.ground_population() - probability))
            worst_state = max(
                worst_state,
                float(np.max(np.abs(evolved.minus_component.amplitudes - ref_minus))),
                float(np.max(np.abs(evolved.plus_component.amplitudes - ref_plus))),
            )
    return [
        _result("closed_form_vs_propagator_probability", worst_prob, 1e-8),
        _result("closed_form_vs_propagator_state", worst_state, 1e-8),
    ]


def norm_conservation(seed: int = 0, max_n: int = 20, times_per_n: int = 100) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for n in range(1, max_n + 1):
        times = rng.uniform(0.0, 12.0, size=times_per_n)
        minus, plus = dynamics._closed_form_grids(n, 1.0, times, n, n)
        drift = np.abs(_squared_norms(minus) + _squared_norms(plus) - 1.0)
        worst = max(worst, float(np.max(drift)))
    return _result("norm_conservation", worst, 1e-12)


def entropy_matches_reduced_density(seed: int = 0) -> CheckResult:
    """Binary-entropy closed form against the eigenvalue entropy of the
    2x2 internal reduced density matrix built from the full state."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for n in (2, 5, 9, 10, 16):
        times = rng.uniform(0.0, 12.0, size=40)
        minus, plus = dynamics._closed_form_grids(n, 1.0, times, n, n)
        density = np.empty((len(times), 2, 2), dtype=np.complex128)
        density[:, 0, 0] = _squared_norms(minus)
        density[:, 1, 1] = _squared_norms(plus)
        # <+|-> vanishes for this dynamics, but the check must not assume so
        density[:, 0, 1] = np.einsum("tij,tij->t", plus.conj(), minus)
        density[:, 1, 0] = density[:, 0, 1].conj()
        direct = dynamics.von_neumann_entropy(density)
        closed = dynamics.vibrational_entropy(n, 1.0, times)
        worst = max(worst, float(np.max(np.abs(closed - direct))))
    return _result("entropy_matches_reduced_density", worst, 1e-10)


def rabi_frequency_symmetry(max_n: int = 20) -> CheckResult:
    worst = 0.0
    for n in range(1, max_n + 1):
        freqs = dynamics.rabi_spectrum(n, 1.0).frequencies
        worst = max(worst, float(np.max(np.abs(freqs - freqs[::-1]))))
    return _result("rabi_frequency_symmetry", worst, 0.0)


def fluctuation_free_limit() -> CheckResult:
    """tau = 0 averaging must reproduce the deterministic probability."""
    worst = 0.0
    for mode in fluctuations.MODES:
        model = fluctuations.FluctuationModel(g_mean=1.0, tau=0.0, mode=mode)
        for t in np.linspace(0.1, 9.7, 25):
            worst = max(
                worst,
                abs(
                    fluctuations.averaged_ground_probability(9, model, float(t))
                    - dynamics.ground_probability(9, 1.0, float(t))
                ),
            )
    return _result("fluctuation_free_limit", worst, 1e-12)


# Comparison grid for the two analytic kernels.  The closed-cosine and the
# Gaussian kernel agree only where the shape t/tau is large AND the phase
# correction (t/tau)(omega g tau)^3 / 3 stays small, so the grid keeps
# omega * g * tau <= 1.6e-3 alongside t/tau >= 1e3.
KERNEL_OMEGAS = (0.5, 1.0, 2.0, 4.0, 8.0)
KERNEL_TAUS = (1e-10, 2e-10, 5e-10, 1e-9, 2e-9)
KERNEL_SHAPES = (1e3, 1e4, 1e5)
KERNEL_G = 1e5


def gamma_vs_gaussian() -> CheckResult:
    """Envelope-relative disagreement of the two analytic kernels in the
    large-shape regime."""
    worst = 0.0
    for omega in KERNEL_OMEGAS:
        for tau in KERNEL_TAUS:
            for shape in KERNEL_SHAPES:
                t = shape * tau
                exact = fluctuations.gamma_kernel(omega, KERNEL_G, tau, t)
                approx = fluctuations.gaussian_kernel(omega, KERNEL_G, tau, t)
                envelope = (1.0 + (omega * KERNEL_G * tau) ** 2) ** (-t / (2.0 * tau))
                worst = max(worst, abs(exact - approx) / envelope)
    return _result("gamma_vs_gaussian", worst, 0.01)


def monte_carlo_vs_gamma(
    seed: int = 0,
    n_samples: int = 100_000,
    kernel: Callable[[float, float, float, float], float] = fluctuations.gamma_kernel,
) -> CheckResult:
    """Seeded Monte-Carlo kernel against the closed kernel on a 5x5
    (omega, tau) grid, in units of the Monte-Carlo standard error.

    ``kernel`` is injectable so a deliberately wrong closed form is
    detected by this check.
    """
    omegas = (0.5, 1.0, 2.0, 4.0, 8.0)
    taus = (1e-4, 3e-4, 1e-3, 3e-3, 1e-2)
    g, t = 1.0, 1.0
    children = np.random.SeedSequence(seed).spawn(len(omegas) * len(taus))
    worst = 0.0
    index = 0
    for omega in omegas:
        for tau in taus:
            model = fluctuations.FluctuationModel(
                g_mean=g, tau=tau, mode="monte_carlo", mc_samples=n_samples
            )
            estimate = fluctuations.monte_carlo_cosine(
                omega, t, model, rng=np.random.default_rng(children[index])
            )
            index += 1
            pull = abs(estimate.mean - kernel(omega, g, tau, t)) / estimate.standard_error
            worst = max(worst, pull)
    return _result("monte_carlo_vs_gamma", worst, 3.0)


def mixture_linearity() -> CheckResult:
    """Mixed probability, one weighted sum over the merged keys of all terms,
    against the convex combination of pure runs taken term by term."""
    model = fluctuations.FluctuationModel(g_mean=1e5, tau=1e-8)
    prep = preparation.PreparationModel(n_target=9, delta=0.7)
    t = dynamics.parity_times(9, 1e5).comparison_time
    mixed = preparation.averaged_ground_probability_mixed(prep, model, t)
    m_values, weights = prep.terms()
    term_by_term = sum(
        w * fluctuations.averaged_ground_probability(int(m), model, t)
        for m, w in zip(m_values, weights)
    )
    return _result("mixture_linearity", abs(mixed - term_by_term), 1e-12)


def mixture_truncation() -> CheckResult:
    """Widening the mixture truncation may not move the result."""
    model = fluctuations.FluctuationModel(g_mean=1e5, tau=1e-8)
    prep = preparation.PreparationModel(n_target=9, delta=1.0)
    t = dynamics.parity_times(9, 1e5).comparison_time
    base = preparation.averaged_ground_probability_mixed(prep, model, t)
    widened = preparation.averaged_ground_probability_mixed(prep, model, t, extra_terms=8)
    return _result("mixture_truncation", abs(base - widened), 1e-9)


def exact_preparation_limit() -> CheckResult:
    """A very narrow mixture must match the exact-state flag."""
    model = fluctuations.FluctuationModel(g_mean=1e5, tau=1e-8)
    t = dynamics.parity_times(9, 1e5).comparison_time
    narrow = preparation.averaged_ground_probability_mixed(
        preparation.PreparationModel(9, delta=1e-3), model, t
    )
    exact = preparation.averaged_ground_probability_mixed(
        preparation.PreparationModel(9, delta=None), model, t
    )
    return _result("exact_preparation_limit", abs(narrow - exact), 1e-6)


def static_drive_limit() -> CheckResult:
    """Drive expansion restricted to its static term against the
    pair-exchange matrix at the derived coupling."""
    params = PhysicalParams(omega=1.0, nu=100.0, eta_ld=0.05)
    h_drive = propagators.LambDickeHamiltonian(
        params, expansion_order=2, cutoff_a=4, cutoff_b=4, resonant_only=True
    )
    h_pair = propagators.EffectiveHamiltonian(params.effective_coupling(), 4, 4)
    difference = float(np.max(np.abs(h_drive.matrix_at(0.37) - h_pair.matrix())))
    return _result("static_drive_limit", difference, 1e-12)


def lamb_dicke_unitarity() -> CheckResult:
    params = PhysicalParams(omega=1.0, nu=50.0, eta_ld=0.05)
    initial = _initial_state(2, cutoff=5)
    try:
        final = propagators.propagate_lamb_dicke(initial, params, expansion_order=3, t=30.0)
    except RuntimeError as exc:  # norm drift or truncation: the check fails, the run goes on
        return CheckResult("lamb_dicke_unitarity", math.inf, 1e-8, False, str(exc))
    period_map = propagators.one_period_map(propagators.LambDickeHamiltonian(params, 3, 5, 5))
    defect = np.max(np.abs(period_map.conj().T @ period_map - np.eye(len(period_map))))
    return _result(
        "lamb_dicke_unitarity",
        abs(final.total_squared_norm() - 1.0),
        1e-8,
        f"one-period map max|M^dag M - I| = {defect:.3e}",
    )


def rwa_deviation_decreases(
    ratios: Sequence[float] = (25.0, 50.0),
    omega: float = 1.0,
    eta_ld: float = 0.05,
    expansion_order: int = 3,
    n_total: int = 2,
    t_max_over_g: float = 0.3,
    n_points: int = 6,
) -> CheckResult:
    """Ground-population deviation between the drive expansion and the
    pair-exchange model must shrink as nu/omega grows.

    Measured value is the largest ratio of successive deviations; bound 1
    means strictly decreasing.
    """
    cutoff = n_total + 2
    initial = _initial_state(n_total, cutoff=cutoff)
    deviations = []
    for ratio in ratios:
        params = PhysicalParams(omega=omega, nu=ratio * omega, eta_ld=eta_ld)
        g_eff = params.effective_coupling()
        times = np.linspace(0.0, t_max_over_g / g_eff, n_points + 1)[1:]
        try:
            driven = propagators.ground_population_trajectory(
                initial, params, expansion_order, times
            )
        except RuntimeError as exc:
            return CheckResult("rwa_deviation_decreases", math.inf, 1.0, False, str(exc))
        paired = np.array(
            [
                propagators.propagate_effective(initial, g_eff, float(t)).ground_population()
                for t in times
            ]
        )
        deviations.append(float(np.max(np.abs(driven - paired))))
    worst_ratio = max(
        deviations[i + 1] / deviations[i] for i in range(len(deviations) - 1)
    )
    detail = "deviations: " + ", ".join(f"{d:.3e}" for d in deviations)
    return CheckResult(
        "rwa_deviation_decreases", worst_ratio, 1.0, worst_ratio < 1.0, detail
    )


def run_all(
    seed: int = 0,
    full: bool = False,
    drive_omega: float = 1.0,
    drive_eta_ld: float = 0.05,
) -> list[CheckResult]:
    """Full battery; ``full`` switches the drive-vs-pair-exchange check to
    the high-ratio configuration."""
    results = []
    results.extend(closed_form_vs_propagator(seed))
    results.append(norm_conservation(seed))
    results.append(entropy_matches_reduced_density(seed))
    results.append(rabi_frequency_symmetry())
    results.append(fluctuation_free_limit())
    results.append(gamma_vs_gaussian())
    results.append(monte_carlo_vs_gamma(seed))
    results.append(mixture_linearity())
    results.append(mixture_truncation())
    results.append(exact_preparation_limit())
    results.append(static_drive_limit())
    results.append(lamb_dicke_unitarity())
    if full:
        results.append(
            rwa_deviation_decreases(
                ratios=(50.0, 100.0, 200.0),
                omega=drive_omega,
                eta_ld=drive_eta_ld,
                t_max_over_g=1.0,
                n_points=10,
            )
        )
    else:
        results.append(
            rwa_deviation_decreases(omega=drive_omega, eta_ld=drive_eta_ld)
        )
    return results
