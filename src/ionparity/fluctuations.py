"""Non-dissipative decoherence from a fluctuating drive intensity.

The accumulated pulse area A(t) = integral of the instantaneous coupling
is modelled as Gamma-distributed with shape t/tau and scale g*tau, so
<A> = g t and var(A) = g^2 t tau.  Observables are averaged over A; three
interchangeable kernels for E[cos(omega A)] are provided:

    gamma_exact     Re[(1 - i omega g tau)^(-t/tau)]   (characteristic function)
    gaussian_approx cos(omega g t) exp(-omega^2 g^2 t tau / 2)
    monte_carlo     seeded sample mean over explicit Gamma draws

tau = 0 degenerates to the deterministic area A = g t in every mode, and so
does a tau so small that the Gamma shape t/tau overflows to inf.  Toward
tau -> inf the exact law gives E[cos(omega A)] = 1: gamma_kernel reaches that
limit by itself, and monte_carlo returns it where the Gamma scale g*tau
overflows; gaussian_approx keeps its formula's 0 there.

One private dispatch, ``_kernels``, evaluates the chosen kernel over a whole
array of area frequencies (``gamma_kernel`` and ``gaussian_kernel`` map
arrays to arrays).  The ground probability of N depends on its spectrum only
through the integer keys p = (N-k)k, whose area frequency is 4 sqrt(p);
``_area_terms`` caches, per N, the distinct keys and the binomial weights
merged over k <-> N-k.  Every average is a thin call into
``mixture_ground_probabilities``, the one entry point for Fock mixtures (a
preparation's ``terms()``): it drops terms of weight exactly 0.0, takes the
union of the keys of several mixtures (``_mixture_matrix``, one weight row
per mixture), calls ``_kernels`` once over the distinct frequencies and
returns one weighted sum per mixture, so the odd and even targets of a
parity comparison share one call.  Given a column of taus, the
analytic kernels broadcast over (tau, p) in that same call, so a whole sweep
curve is one matrix product of kernel rows and weight rows.  In monte_carlo mode
all frequencies of a call share one set of draws, streamed from the call's one
generator in blocks of ``MC_DRAW_BLOCK`` draws (the same stream, bit for bit,
as one call for all of them).  Each block adds its cosines into one running
sum per distinct key, formed in tiles of at most ``MC_BLOCK_PAIRS``
(frequency, draw) pairs, and the sums are divided by the sample count once at
the end.  Memory is one draw block plus one tile per worker, whatever
``mc_samples`` is, and time stays linear in it.  The key p = 0 has frequency
0, so its row is exactly 1 and is set, not sampled.

``monte_carlo_cosine``, the estimate the validation battery checks against
gamma_exact, runs that same sampler at the frequencies (omega, 2 omega) and
returns (mean, standard error); the second row gives the sample variance
through cos^2 x = (1 + cos 2x) / 2.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .dynamics import rabi_spectrum

MODES = ("gamma_exact", "gaussian_approx", "monte_carlo")

# Monte-Carlo draws taken from the generator at a time: 2^16 float64, 512 KiB
MC_DRAW_BLOCK = 1 << 16

# (frequency, draw) cosines per Monte-Carlo tile: 2^18 float64, 2 MiB, one
# core's L2 cache on the 2-core machine the block sizes were measured on
MC_BLOCK_PAIRS = 1 << 18

# totals N whose keyed spectra stay cached; both targets of one sweep point at
# the default lowest efficiency 0.05 span at most 147 totals of non-zero weight
AREA_CACHE_SIZE = 256


def _check_tau(tau: float) -> float:
    if not 0.0 <= tau < math.inf:
        raise ValueError(f"tau must be finite and non-negative, got {tau}")
    return tau


@dataclass(frozen=True)
class FluctuationModel:
    """Mean coupling, fluctuation strength and averaging mode.

    The seed is part of the model so Monte-Carlo runs are reproducible;
    concurrent sweeps should carry distinct seeds.
    """

    g_mean: float
    tau: float
    mode: str = "gaussian_approx"
    mc_samples: int = 100_000
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.g_mean < math.inf:
            raise ValueError(f"g_mean must be finite and positive, got {self.g_mean}")
        _check_tau(self.tau)
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.mode == "gaussian_approx" and self.g_mean * self.g_mean == math.inf:
            raise ValueError(f"g = {self.g_mean} is too large for gaussian_approx, "
                             "whose exponent holds g**2")
        if self.mc_samples < 1:
            raise ValueError("mc_samples must be at least 1")


def gamma_kernel(
    omega: np.ndarray | float, g: float, tau: float, t: float
) -> np.ndarray | float:
    """Re[(1 - i omega g tau)^(-t/tau)] on the principal branch, elementwise.

    Evaluated in polar form with log1p so tiny x = omega*g*tau stays
    accurate.  Where x * x overflows, log1p(x^2) is taken as
    2 log|x| + log1p(x^-2), with log|x| summed from the logs of the factors
    so that an x that overflows itself stays finite too; every other entry
    is log1p(x * x) as it stands.
    """
    # x and x * x may overflow to inf (replaced below), and so may 2 tau,
    # where t / inf = 0 is the shape's own limit
    with np.errstate(over="ignore"):
        x = omega * g * tau
        log_modulus = np.log1p(x * x)
        wide = log_modulus == math.inf
        if np.any(wide):
            log_modulus = np.array(log_modulus)
            log_x = (np.log(np.abs(np.broadcast_to(omega, wide.shape)[wide])) + math.log(g)
                     + np.log(np.broadcast_to(tau, wide.shape)[wide]))
            log_modulus[wide] = 2.0 * log_x + np.log1p(np.exp(-2.0 * log_x))
        magnitude = np.exp(-(t / (2.0 * tau)) * log_modulus)
    return magnitude * np.cos((t / tau) * np.arctan(x))


def gaussian_kernel(
    omega: np.ndarray | float, g: float, tau: float, t: float
) -> np.ndarray | float:
    """cos(omega g t) exp(-omega^2 g^2 t tau / 2), elementwise.

    An exponent that overflows to -inf gives the formula's limit 0."""
    with np.errstate(over="ignore"):
        return np.cos(omega * g * t) * np.exp(-(omega**2) * g**2 * t * tau / 2.0)


def sample_pulse_areas(
    g: float, tau: float, t: float, rng: np.random.Generator, n_samples: int
) -> np.ndarray:
    """Gamma draws of the pulse area: shape t/tau, scale g*tau."""
    if t <= 0.0 or tau <= 0.0:
        raise ValueError("Gamma sampling needs t > 0 and tau > 0")
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    return rng.gamma(shape=t / tau, scale=g * tau, size=n_samples)


def monte_carlo_cosine(
    omega: float, t: float, model: FluctuationModel, rng: np.random.Generator | None = None
) -> tuple[float, float]:
    """Sample estimate (mean, standard error) of E[cos(omega A)], drawn by
    the sampler the sweeps run: one Monte-Carlo ``_kernels`` call at the
    frequencies (omega, 2 omega), whatever ``model.mode`` says.  The second
    row gives the second moment through cos^2 x = (1 + cos 2x) / 2.  Where
    the area is deterministic (tau = 0, or t/tau or g*tau overflows) the
    standard error is 0."""
    sampled = replace(model, mode="monte_carlo")
    mean, twice = _kernels(np.array([omega, 2.0 * omega]), sampled, t, rng)
    n = model.mc_samples
    fixed = model.tau == 0.0 or t / model.tau == math.inf or model.g_mean * model.tau == math.inf
    stderr = 0.0
    if n > 1 and not fixed:
        # sample variance with Bessel's correction, clamped against cancellation
        stderr = math.sqrt(max(0.0, (1.0 + twice) / 2.0 - mean * mean) / (n - 1))
    return float(mean), stderr


def _monte_carlo(
    omegas: np.ndarray, model: FluctuationModel, t: float, rng: np.random.Generator
) -> np.ndarray:
    """Sample means of cos(omega A) over ``model.mc_samples`` areas drawn from
    ``rng``, streamed in blocks so memory does not grow with the count."""
    live = omegas != 0.0  # cos(0 A) = 1 for every draw: set, not sampled
    frequencies = omegas[live]
    block = min(MC_DRAW_BLOCK, model.mc_samples)
    rows = max(1, MC_BLOCK_PAIRS // block)
    tile = np.empty((min(rows, frequencies.size), block))
    sums = np.zeros(frequencies.size)
    for start in range(0, model.mc_samples, block):
        draws = sample_pulse_areas(model.g_mean, model.tau, t, rng,
                                   min(block, model.mc_samples - start))
        for first in range(0, frequencies.size, rows):
            part = tile[:min(rows, frequencies.size - first), :draws.size]
            np.multiply.outer(frequencies[first:first + rows], draws, out=part)
            sums[first:first + rows] += np.cos(part, out=part).sum(axis=1)
    means = np.ones(omegas.size)
    means[live] = sums / model.mc_samples
    return means


def _kernels(
    omegas: np.ndarray,
    model: FluctuationModel,
    t: float,
    rng: np.random.Generator | None = None,
    taus: Sequence[float] | None = None,
) -> np.ndarray:
    """E[cos(omega A)] for every entry of the 1-D array ``omegas``; t must be
    finite and positive, as the Gamma shape t/tau is.

    ``taus``, positive fluctuation strengths checked as ``FluctuationModel``
    checks its own, replace ``model.tau`` in the analytic modes: the result
    then has one row per tau, so a whole sweep curve is one broadcast.
    Without them ``model.tau`` is a column of one row, and the result is that
    row.  Where t/tau overflows, the row is the tau -> 0 limit cos(omega g t).
    Where the scale g tau overflows, gamma_kernel itself gives the exact law's
    tau -> inf limit 1.0, and monte_carlo, whose draws would be inf, returns
    that limit without drawing.
    """
    if not 0.0 < t < math.inf:
        raise ValueError(f"t must be finite and positive, got {t}")
    if taus is not None:
        taus = [_check_tau(float(value)) for value in taus]
        if model.mode == "monte_carlo" or not all(value > 0.0 for value in taus):
            raise ValueError("a column of taus needs an analytic mode and positive taus")
    g = model.g_mean
    column = np.array([model.tau] if taus is None else taus)
    with np.errstate(divide="ignore", over="ignore"):
        # tau = 0, or a tau so small that the shape t/tau overflows: the area is g t
        fixed = t / column == math.inf
    rows = np.empty((column.size, omegas.size))
    if fixed.any():
        rows[fixed] = np.cos(omegas * g * t)
    if model.mode != "monte_carlo":
        kernel = gamma_kernel if model.mode == "gamma_exact" else gaussian_kernel
        rows[~fixed] = kernel(omegas, g, column[~fixed, np.newaxis], t)
    elif not fixed[0]:
        # draws at an infinite scale would be inf: the limit is set, not sampled
        rows[0] = 1.0 if g * model.tau == math.inf else _monte_carlo(
            omegas, model, t, np.random.default_rng(model.seed) if rng is None else rng)
    return rows[0] if taus is None else rows


@functools.lru_cache(maxsize=AREA_CACHE_SIZE)
def _area_terms(n_total: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distinct keys p = (N-k)k of N = n_total in ascending order, their area
    frequencies and the binomial weights merged over k <-> N-k, read-only."""
    # Ground-probability phases are 2 f_k t = (4 sqrt((N-k)k)) * (g t), so the
    # frequency conjugate to the pulse area A = g t is 4 sqrt(p).
    k = np.arange(n_total + 1)
    keys, inverse = np.unique((n_total - k) * k, return_inverse=True)
    weights = np.bincount(inverse, weights=rabi_spectrum(n_total, 1.0).weights,
                          minlength=keys.size)
    omegas = 2.0 * (2.0 * np.sqrt(keys))
    for array in (keys, omegas, weights):
        array.flags.writeable = False
    return keys, omegas, weights


def _mixture_matrix(
    mixtures: Sequence[tuple[Sequence[int], Sequence[float]]],
) -> tuple[np.ndarray, np.ndarray]:
    """Distinct area frequencies of several Fock mixtures and their weight
    matrix, one row per mixture and one column per distinct key p.  Terms of
    weight exactly 0.0 are dropped."""
    parts = [(index, weight, _area_terms(int(n)))
             for index, (n_totals, weights) in enumerate(mixtures)
             for n, weight in zip(n_totals, weights) if weight != 0.0]
    if len({index for index, _, _ in parts}) != len(mixtures):
        raise ValueError("every mixture needs a term of non-zero weight")
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


def mixture_ground_probabilities(
    mixtures: Sequence[tuple[Sequence[int], Sequence[float]]],
    model: FluctuationModel,
    t: float,
    rng: np.random.Generator | None = None,
    taus: Sequence[float] | None = None,
) -> np.ndarray:
    """Fluctuation-averaged ground probabilities at t > 0 of several Fock
    mixtures, each given as its totals N_m and weights c_m (summing to one):

        P(t) = 1/2 [1 + sum_m c_m sum_p w_p(N_m) E[cos(4 sqrt(p) A)]]

    Terms of weight exactly 0.0 are dropped.  The kernel runs once over the
    distinct keys p of all mixtures together, so in monte_carlo mode every
    mixture sees the same draws and each distinct p costs one cosine row.
    With ``taus`` (analytic modes only) that one kernel call covers every
    tau, and the result has one row per tau and one column per mixture.
    """
    omegas, matrix = _mixture_matrix(mixtures)
    return 0.5 * (1.0 + _kernels(omegas, model, t, rng, taus) @ matrix.T)


def averaged_ground_probability(
    n_total: int,
    model: FluctuationModel,
    t: float,
    rng: np.random.Generator | None = None,
) -> float:
    """Fluctuation-averaged ground-level probability of N = n_total at t > 0.

    In monte_carlo mode a single set of area draws is shared by all
    terms, which is the direct average of the probability itself.
    """
    return float(mixture_ground_probabilities((((n_total,), (1.0,)),), model, t, rng)[0])

