"""Cross-validation battery: every closed form checked against an
independent numerical route, each check reporting its measured error
against a fixed bound.

Every evolution route maps a 1-D array of times to (minus, plus) amplitude
stacks, so each side of a check covers one N's sample times in one call; the
routes stay independent because none calls another.  The Rabi rates are
read against one pair-exchange coupling block, the two analytic kernels
against each other over their whole grid in one broadcast, a mixture
against its pure runs.

``run_all`` spreads the 25 cells of ``monte_carlo_vs_gamma``, its slowest
row (90-160 ms CPU alone on the 2-core machine), over both cores.  Every
cell is queued on one worker thread at once; once its other rows are done,
the calling thread runs each cell whose future still cancels (the worker
has not started it) and takes the rest from their futures.  The other rows
stay on the calling thread, where perfbench's tracer finds their parent
span.  Each cell draws from its own seed, so the row reads the same bits
whichever thread ran which cell, and every row reads the same bits as when
the checks are called one by one.  The cells make no BLAS call, and run
beside the other lane only while it does not hold the GIL through long runs
of tiny numpy calls.  In-process, one BLAS thread, 10 alternated runs: the
cells took a median 112 ms alone, 141 ms beside ``_suite_drives`` looping
and 0.43 s (0.25-8.5 s) beside ``fluctuation_free_limit`` looping, which
averages each mode over all its times in one array call (31 s while it
made 75 scalar calls).  The two drive rows read one build of the suite's
drives (``_suite_drives``, 12-15 ms in-process, best of 5, since RK4 steps
the two parity sectors as one stack; 21-23 ms before): each drive of
``RWA_SUITES[full]`` is propagated once per battery, and
``lamb_dicke_unitarity`` reads its norms and period-map defects from those
builds.
The battery runs on one OpenBLAS thread, restored afterwards: on two, the
drive checks took the same 13-14 ms wall (21-22 ms with --full; in-process,
best of 5), and on a 2-core machine they would compete with the cells.

Each row of ``run_all``, the fault it catches, and the test in
tests/test_checks.py that injects that fault and sees the row fail:

- closed_form_vs_propagator_probability: binomial amplitude P_1 off by 1e-6;
  test_closed_form_checks_see_a_wrong_binomial_amplitude
- closed_form_vs_propagator_state: a |-> amplitude off by 1e-6 at every time;
  test_batched_checks_detect_a_faulted_closed_form (and P_1 as above)
- norm_conservation: the same |-> amplitude; the same test
- entropy_matches_reduced_density: the same |-> amplitude (the same test),
  and a |+> amplitude moved onto a cell |-> occupies, which keeps both
  populations; test_entropy_check_reads_the_off_diagonal_coherence
- rabi_frequency_symmetry: rates 3 g sqrt((N-k)k); test_rabi_rate_check_sees_a_wrong_rate
- fluctuation_free_limit: area frequency 2 sqrt(p) for 4 sqrt(p), and a
  kernel phase cos(omega t) that drops g (the check runs at g = 1e5);
  test_fluctuation_free_limit_sees_a_wrong_area_frequency,
  test_fluctuation_free_limit_sees_a_kernel_phase_without_g
- gamma_vs_gaussian: a Gaussian exponent without its /2;
  test_gamma_vs_gaussian_sees_a_gaussian_exponent_without_its_half
- monte_carlo_vs_gamma: a gamma kernel with its decay sign flipped, and a
  sampler biased by 6 standard errors; test_monte_carlo_check_detects_wrong_kernel,
  test_monte_carlo_check_runs_the_sweeps_sampler; one cell biased by 6
  standard errors in ``run_all``, the first (run by the worker) or the
  last (run by the calling thread);
  test_one_cell_biased_by_six_standard_errors_fails_the_battery_row; a cosine recurrence with a
  flipped sign or one rung off, at the key omega = 8 (tests/test_fluctuations.py::
  test_a_faulted_recurrence_leaves_the_bound_and_fails_the_check)
- mixture_linearity: a merge in which one term's weight wins a shared key;
  test_mixture_linearity_sees_a_merge_that_drops_shared_keys
- mixture_truncation: the default cut at N + ceil(Delta) for N + ceil(8 Delta);
  test_mixture_truncation_sees_a_cut_at_n_plus_ceil_delta
- exact_preparation_limit: a mixture centred on N + 1;
  test_exact_preparation_limit_sees_a_mixture_off_its_target
- static_drive_limit: the drive's static block off by 1e-6 relative;
  test_static_drive_limit_sees_a_static_term_off_by_one_part_in_a_million
- lamb_dicke_unitarity, rwa_deviation_decreases: a propagator that gives up,
  its norm drift persisting through three doublings of the RK4 steps;
  test_drive_checks_fail_when_the_propagator_gives_up.  lamb_dicke_unitarity
  reads the norm at every time of the suite's drives, and the defect of each
  drive's period map, from the builds it shares with rwa_deviation_decreases.
  Its norm is the quantity ``propagators._drive_states`` already holds to the
  same 1e-8, so the row either passes or reads inf with the propagator's
  message; the defect enters only its detail
- rwa_deviation_decreases: a drive coupling W(t) off by 1e-3 relative, which
  keeps the norm (so lamb_dicke_unitarity and static_drive_limit pass it);
  test_rwa_check_sees_a_drive_coupling_off_by_one_part_in_a_thousand.
  Blind spot: a drive whose phases e^{i m nu t} have the wrong sign fails no
  row (rwa_deviation_decreases reads 0.27 against its bound 1)."""

from __future__ import annotations

import contextlib
import ctypes
import functools
import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from . import dynamics, fluctuations, preparation, propagators
from .propagators import Drive, _squared_norms
from .states import TwoModeState, effective_coupling

# Closed-form amplitudes oscillate at 2 g sqrt((N-k)k); the pair-exchange
# propagator rotates its blocks at coupling * sqrt(n_a n_b).
CLOSED_FORM_COUPLING_FACTOR = 2.0

# validate's drive-vs-pair-exchange suites, keyed by --full: the ratios nu/omega, the
# span in units of 1/g and the sample count; each drive has order RWA_ORDER and N = 2.
RWA_SUITES = {False: ((25.0, 50.0), 0.3, 6), True: ((50.0, 100.0, 200.0), 1.0, 10)}
RWA_ORDER = 3


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


def _initial_state(n_total: int, cutoff: int | None = None) -> TwoModeState:
    """|-> grid of the binomial state sum_k sqrt(C(N, k) / 2^N) |N-k, k>|->
    from exact integers, so the propagators start from amplitudes that share
    no routine with the closed forms they are checked against (N <= 20 here)."""
    cut = n_total if cutoff is None else cutoff
    minus = np.zeros((cut + 1, cut + 1), dtype=np.complex128)
    for k in range(n_total + 1):
        minus[n_total - k, k] = math.sqrt(math.comb(n_total, k) / 2**n_total)
    return TwoModeState(minus)


def closed_form_vs_propagator(
    seed: int = 0, n_range: Sequence[int] = range(1, 7), times_per_n: int = 50, g: float = 1.0
) -> list[CheckResult]:
    """Closed-form probability and state amplitudes against the exact
    block propagator, over random times in [0, 10/g].

    The closed form and the propagator each evaluate one N's times in one
    array call."""
    rng = np.random.default_rng(seed)
    worst_prob = 0.0
    worst_state = 0.0
    for n in n_range:
        times = rng.uniform(0.0, 10.0 / g, size=times_per_n)
        minus, plus = dynamics.evolve_closed_form(n, g, times)
        probabilities = dynamics.ground_probability(n, g, times)
        evolved_minus, evolved_plus = propagators.propagate_effective(
            _initial_state(n), CLOSED_FORM_COUPLING_FACTOR * g, times
        )
        worst_prob = max(worst_prob, np.max(np.abs(_squared_norms(evolved_minus) - probabilities)))
        worst_state = max(
            worst_state, np.max(np.abs(evolved_minus - minus)), np.max(np.abs(evolved_plus - plus))
        )
    return [
        _result("closed_form_vs_propagator_probability", worst_prob, 1e-8),
        _result("closed_form_vs_propagator_state", worst_state, 1e-8),
    ]


def norm_conservation(seed: int = 0) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for n in range(1, 21):
        times = rng.uniform(0.0, 12.0, size=100)
        minus, plus = dynamics.evolve_closed_form(n, 1.0, times)
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
        minus, plus = dynamics.evolve_closed_form(n, 1.0, times)
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


def rabi_frequency_symmetry() -> CheckResult:
    """Each closed-form rate f_k against the pair-exchange matrix element
    that couples |N-k, k>|-> to |N-k-1, k-1>|+> at coupling 2 g, all read
    from one block on the grid up to (20, 20); the rates f_0 and f_N have
    no such partner and must be 0.  Both sides round 2 g sqrt((N-k) k)
    once, so the bound is exact."""
    max_n = 20
    block = propagators.pair_exchange_matrix(CLOSED_FORM_COUPLING_FACTOR, max_n, max_n)
    worst = 0.0
    for n in range(1, max_n + 1):
        k = np.arange(1, n)
        # |N-k, k>|-> is row (N-k)(max_n+1)+k; |N-k-1, k-1>|+> is max_n+2 columns before it
        rows = (n - k) * (max_n + 1) + k
        elements = np.zeros(n + 1)
        elements[1:n] = block[rows, rows - (max_n + 2)].real
        freqs = dynamics.rabi_spectrum(n, 1.0).frequencies
        worst = max(worst, float(np.max(np.abs(freqs - elements))))
    return _result("rabi_frequency_symmetry", worst, 0.0)


def fluctuation_free_limit() -> CheckResult:
    """tau = 0 averaging must reproduce the deterministic probability, at the
    sweeps' g = 1e5, where a kernel phase that drops g cannot pass as at g = 1.
    Each mode averages N = 9 over all 25 times in one array call."""
    g = 1e5
    times = np.linspace(0.1, 9.7, 25) / g
    deterministic = dynamics.ground_probability(9, g, times)
    omegas, matrix = fluctuations._mixture_matrix([((9,), (1.0,))])
    worst = 0.0
    for mode in fluctuations.MODES:
        model = fluctuations.FluctuationModel(g_mean=g, tau=0.0, mode=mode)
        averaged = fluctuations._ground_probabilities(omegas, matrix, model, times)[:, 0]
        worst = max(worst, float(np.max(np.abs(averaged - deterministic))))
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
    large-shape regime, over the whole grid in one broadcast."""
    omega, tau, shape = np.meshgrid(KERNEL_OMEGAS, KERNEL_TAUS, KERNEL_SHAPES, indexing="ij")
    t = shape * tau
    exact = fluctuations.gamma_kernel(omega, KERNEL_G, tau, t)
    approx = fluctuations.gaussian_kernel(omega, KERNEL_G, tau, t)
    envelope = (1.0 + (omega * KERNEL_G * tau) ** 2) ** (-t / (2.0 * tau))
    return _result("gamma_vs_gaussian", np.max(np.abs(exact - approx) / envelope), 0.01)


# Monte-Carlo check grid: 1e5 draws at each (omega, tau), all at g = t = 1.
MC_OMEGAS = (0.5, 1.0, 2.0, 4.0, 8.0)
MC_TAUS = (1e-4, 3e-4, 1e-3, 3e-3, 1e-2)
MC_SAMPLES = 100_000


def _monte_carlo_cells(seed: int) -> list[Callable[[], tuple[float, float]]]:
    """The (omega, tau) cells of ``monte_carlo_vs_gamma``, (omega, tau)-major,
    as calls giving each cell's (mean, standard error).  Each cell draws from
    its own child of ``SeedSequence(seed)``, so its estimate does not depend
    on which thread runs it, nor when."""
    grid = list(itertools.product(MC_OMEGAS, MC_TAUS))
    children = np.random.SeedSequence(seed).spawn(len(grid))
    return [
        functools.partial(
            fluctuations.monte_carlo_cosine, omega, 1.0,
            fluctuations.FluctuationModel(g_mean=1.0, tau=tau, mode="monte_carlo",
                                          mc_samples=MC_SAMPLES),
            np.random.default_rng(child),
        )
        for (omega, tau), child in zip(grid, children)
    ]


def monte_carlo_vs_gamma(
    seed: int = 0,
    kernel: Callable[[float, float, float, float], float] = fluctuations.gamma_kernel,
    estimates: Sequence[tuple[float, float]] | None = None,
) -> CheckResult:
    """Seeded Monte-Carlo kernel against the closed kernel on a 5x5
    (omega, tau) grid of 1e5 draws a point, in Monte-Carlo standard errors.

    The estimates come from the sampler every Monte-Carlo sweep runs, and
    each standard error from the same draws at 2 omega (see
    ``fluctuations.monte_carlo_cosine``).  The bound holds the largest of 25
    pulls to 3, so working code fails it with probability about
    1 - 0.9973^25 = 6.5%: program seeds 2 and 14 do (3.29 and 3.02).
    ``kernel`` is injectable so a deliberately wrong closed form is
    detected by this check.  ``estimates``, the (mean, standard error) of
    each of ``seed``'s cells in grid order, is given where the cells were
    drawn on two threads (``run_all``); otherwise they are drawn here.
    """
    if estimates is None:
        try:
            estimates = [cell() for cell in _monte_carlo_cells(seed)]
        finally:
            fluctuations._release_tile()
    pulls = [
        abs(mean - kernel(omega, 1.0, tau, 1.0)) / stderr
        for (omega, tau), (mean, stderr) in zip(itertools.product(MC_OMEGAS, MC_TAUS), estimates)
    ]
    return _result("monte_carlo_vs_gamma", max(pulls), 3.0)


def mixture_linearity() -> CheckResult:
    """Mixed probability, one weighted sum over the merged keys of all terms,
    against the convex combination of pure runs taken term by term."""
    model = fluctuations.FluctuationModel(g_mean=1e5, tau=1e-8)
    prep = preparation.PreparationModel(n_target=9, delta=0.7)
    t = dynamics.comparison_time(9, 1e5)
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
    t = dynamics.comparison_time(9, 1e5)
    base = preparation.averaged_ground_probability_mixed(prep, model, t)
    widened = preparation.averaged_ground_probability_mixed(prep, model, t, extra_terms=8)
    return _result("mixture_truncation", abs(base - widened), 1e-9)


# narrow, yet wide enough that 8 terms of N = 9 keep a non-zero weight (the
# nearest neighbours 2.2e-10), so the mixture path really sums several terms
NARROW_DELTA = 0.15


def exact_preparation_limit() -> CheckResult:
    """A very narrow mixture must match the exact-state flag."""
    model = fluctuations.FluctuationModel(g_mean=1e5, tau=1e-8)
    t = dynamics.comparison_time(9, 1e5)
    narrow = preparation.averaged_ground_probability_mixed(
        preparation.PreparationModel(9, delta=NARROW_DELTA), model, t
    )
    exact = preparation.averaged_ground_probability_mixed(
        preparation.PreparationModel(9, delta=None), model, t
    )
    return _result("exact_preparation_limit", abs(narrow - exact), 1e-6)


def static_drive_limit() -> CheckResult:
    """Static (harmonic 0) coupling block of the order-2 drive expansion
    against the pair-exchange block at the derived coupling."""
    drive = Drive(omega=1.0, nu=100.0, eta_ld=0.05, expansion_order=2)
    h_drive = propagators.LambDickeHamiltonian(drive, cutoff_a=4, cutoff_b=4)
    (static,) = h_drive.blocks[h_drive.harmonics == 0.0]
    h_pair = propagators.pair_exchange_matrix(drive.coupling, 4, 4)
    difference = float(np.max(np.abs(static - h_pair)))
    return _result("static_drive_limit", difference, 1e-12)


def _suite_drives(omega: float, eta_ld: float, full: bool) -> list[tuple] | str:
    """Each drive of the ``RWA_SUITES[full]`` suite, built once for both
    drive rows: per ratio, the drive, its sample times and the
    ``_drive_states`` of the N = 2 binomial state at cutoff 4, as
    (drive, times, minus, plus, one-period map's unitarity defect).  Where
    a drive's propagator gives up, its message instead."""
    ratios, t_max_over_g, n_points = RWA_SUITES[full]
    initial = _initial_state(2, cutoff=4)
    drives = []
    for ratio in ratios:
        drive = Drive(omega, ratio * omega, eta_ld, RWA_ORDER)
        times = np.linspace(0.0, t_max_over_g / drive.coupling, n_points + 1)[1:]
        try:
            drives.append((drive, times, *propagators._drive_states(initial, drive, times)))
        except RuntimeError as exc:  # norm drift: the drive rows fail, the run goes on
            return str(exc)
    return drives


def lamb_dicke_unitarity(
    omega: float = 1.0, eta_ld: float = 0.05, full: bool = False,
    drives: list[tuple] | str | None = None,
) -> CheckResult:
    """Largest norm defect |norm - 1| of the drive-propagated states over
    every time of the ``RWA_SUITES[full]`` suite, with the largest unitarity
    defect of the one-period maps that propagation built as its detail.
    ``drives`` is the suite's ``_suite_drives``, built here when None.  The
    propagator raises past the same 1e-8 drift, so this row passes or reads
    inf."""
    drives = _suite_drives(omega, eta_ld, full) if drives is None else drives
    if isinstance(drives, str):
        return CheckResult("lamb_dicke_unitarity", math.inf, 1e-8, False, drives)
    worst_norm = worst_defect = 0.0
    for _, _, minus, plus, defect in drives:
        norms = _squared_norms(minus) + _squared_norms(plus)
        worst_norm = max(worst_norm, float(np.max(np.abs(norms - 1.0))))
        worst_defect = max(worst_defect, defect)
    return _result(
        "lamb_dicke_unitarity",
        worst_norm,
        1e-8,
        f"one-period map max|M^dag M - I| = {worst_defect:.3e}",
    )


def check_rwa_drive(omega: float, eta_ld: float, full: bool = False) -> None:
    """Raise ValueError, naming omega or eta_ld, unless every drive of the
    ``RWA_SUITES[full]`` suite can run.  The inputs are expected to meet
    validate's rows of ``cli.SETTINGS`` already: omega finite and positive,
    eta_ld strictly between 0 and 1.  Past those, each ``Drive`` at
    nu = ratio * omega needs a finite positive RK4 step, and the coupling
    omega eta_ld^2 exp(-eta_ld^2/2) must put the last sample time at a
    finite positive time."""
    ratios, t_max_over_g, _ = RWA_SUITES[full]
    for ratio in ratios:
        try:
            Drive(omega, ratio * omega, eta_ld, RWA_ORDER)
        except ValueError as exc:
            raise ValueError(f"omega must give the drive at nu/omega = {ratio:g} a finite "
                             f"positive RK4 step, got {omega}: {exc}") from None
    g = effective_coupling(omega, eta_ld)
    if not (g > 0.0 and t_max_over_g / g < math.inf):
        raise ValueError(f"omega and eta_ld must give a coupling g whose last sample time "
                         f"{t_max_over_g:g} / g is finite, got {omega} and {eta_ld} (g = {g})")


def rwa_deviation_decreases(
    omega: float = 1.0, eta_ld: float = 0.05, full: bool = False,
    drives: list[tuple] | str | None = None,
) -> CheckResult:
    """Ground-population deviation between the drive expansion and the
    pair-exchange model must shrink as nu/omega grows (``RWA_SUITES[full]``).
    ``drives`` is the suite's ``_suite_drives``, built here when None.

    Measured value is the largest ratio of successive deviations; bound 1
    means strictly decreasing.
    """
    drives = _suite_drives(omega, eta_ld, full) if drives is None else drives
    if isinstance(drives, str):
        return CheckResult("rwa_deviation_decreases", math.inf, 1.0, False, drives)
    initial = _initial_state(2, cutoff=4)
    deviations = []
    for drive, times, minus, _, _ in drives:
        paired = propagators.propagate_effective(initial, drive.coupling, times)[0]
        deviations.append(float(np.max(np.abs(_squared_norms(minus) - _squared_norms(paired)))))
    worst_ratio = max(
        deviations[i + 1] / deviations[i] for i in range(len(deviations) - 1)
    )
    detail = "deviations: " + ", ".join(f"{d:.3e}" for d in deviations)
    return CheckResult(
        "rwa_deviation_decreases", worst_ratio, 1.0, worst_ratio < 1.0, detail
    )


@functools.cache
def _openblas_threads() -> tuple[Callable, Callable] | None:
    """(get, set) of the thread count of numpy's bundled OpenBLAS, or None
    where numpy carries no such library."""
    try:
        from numpy._core import _multiarray_umath
        library = ctypes.CDLL(_multiarray_umath.__file__)
        get = library.scipy_openblas_get_num_threads64_
        set_ = library.scipy_openblas_set_num_threads64_
    except (ImportError, OSError, AttributeError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return get, set_


@contextlib.contextmanager
def _one_blas_thread() -> Iterator[None]:
    """Run the body on one OpenBLAS thread and restore the previous count;
    a no-op where numpy's bundled OpenBLAS is absent.  The count is
    process-wide: bodies that overlap in two threads share it."""
    threads = _openblas_threads()
    if threads is None:
        yield
        return
    get, set_ = threads
    previous = get()
    set_(1)
    try:
        yield
    finally:
        set_(previous)


def run_all(
    seed: int = 0,
    full: bool = False,
    drive_omega: float = 1.0,
    drive_eta_ld: float = 0.05,
) -> list[CheckResult]:
    """Full battery; ``full`` picks the drive-vs-pair-exchange configuration
    from ``RWA_SUITES``.  The Monte-Carlo cells are queued on a worker
    thread at once, and this thread runs every cell the worker has not
    started once its other rows are done; the two drive rows read one build
    of the suite's drives; everything runs on one OpenBLAS thread (see the
    module docstring).  The worker has ended, and the thread count is
    restored, when this returns or raises."""
    cells = _monte_carlo_cells(seed)
    with _one_blas_thread():
        pool = ThreadPoolExecutor(max_workers=1)
        try:
            futures = [pool.submit(cell) for cell in cells]
            # the checks are looked up at call time, so a traced or monkeypatched one runs
            before = [
                *closed_form_vs_propagator(seed),
                norm_conservation(seed),
                entropy_matches_reduced_density(seed),
                rabi_frequency_symmetry(),
                fluctuation_free_limit(),
                gamma_vs_gaussian(),
            ]
            drives = _suite_drives(drive_omega, drive_eta_ld, full)
            after = [
                mixture_linearity(),
                mixture_truncation(),
                exact_preparation_limit(),
                static_drive_limit(),
                lamb_dicke_unitarity(drive_omega, drive_eta_ld, full, drives),
                rwa_deviation_decreases(drive_omega, drive_eta_ld, full, drives),
            ]
            # a cell whose future cancels has not been started by the worker
            inline = [cell() if future.cancel() else None for cell, future in zip(cells, futures)]
            estimates = [mine if future.cancelled() else future.result()
                         for mine, future in zip(inline, futures)]
        finally:
            pool.shutdown(cancel_futures=True)  # a failing row stops the cells not started
            fluctuations._release_tile()
        return [*before, monte_carlo_vs_gamma(seed, estimates=estimates), *after]
