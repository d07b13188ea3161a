"""Non-dissipative decoherence from a fluctuating drive intensity.

The accumulated pulse area A(t) = integral of the instantaneous coupling
is modelled as Gamma-distributed with shape t/tau and scale g*tau, so
<A> = g t and var(A) = g^2 t tau.  Observables are averaged over A; three
interchangeable kernels for E[cos(omega A)] are provided:

    gamma_exact     Re[(1 - i omega g tau)^(-t/tau)]   (characteristic function)
    gaussian_approx cos(omega g t) exp(-omega^2 g^2 t tau / 2)
    monte_carlo     seeded sample mean over explicit Gamma draws

tau = 0 degenerates to the deterministic area A = g t in every mode.

One private dispatch, ``_kernels``, evaluates the chosen kernel over a whole
array of area frequencies (``gamma_kernel`` and ``gaussian_kernel`` map
arrays to arrays).  The ground probability of N depends on its spectrum only
through the integer keys p = (N-k)k, whose area frequency is 4 sqrt(p);
``_area_terms`` caches, per N, the distinct keys and the binomial weights
merged over k <-> N-k.  Every average is a thin call into
``mixture_ground_probabilities``: it drops terms of weight exactly 0.0, takes
the union of the keys of several Fock mixtures (``_mixture_matrix``, one
weight row per mixture), calls ``_kernels`` once over the distinct
frequencies and returns one weighted sum per mixture, so the odd and even
targets of a parity comparison share one call.  Given a column of taus, the
analytic kernels broadcast over (tau, p) in that same call, so a whole sweep
curve is one matrix product of kernel rows and weight rows.  In monte_carlo mode
all frequencies of a call share one set of draws, each distinct key gets one
cosine row, and the cosines are formed at most ``MC_BLOCK_PAIRS`` (frequency,
draw) pairs at a time, so memory stays bounded however many terms a mixture
has.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dynamics import rabi_spectrum

MODES = ("gamma_exact", "gaussian_approx", "monte_carlo")

# (frequency, draw) cosines per Monte-Carlo block: 2^20 float64, 8 MiB
MC_BLOCK_PAIRS = 1 << 20

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
        if self.mc_samples < 1:
            raise ValueError("mc_samples must be at least 1")


@dataclass(frozen=True)
class MonteCarloEstimate:
    mean: float
    standard_error: float
    n_samples: int


def gamma_kernel(
    omega: np.ndarray | float, g: float, tau: float, t: float
) -> np.ndarray | float:
    """Re[(1 - i omega g tau)^(-t/tau)] on the principal branch, elementwise.

    Evaluated in polar form with log1p so tiny omega*g*tau stays accurate.
    """
    x = omega * g * tau
    magnitude = np.exp(-(t / (2.0 * tau)) * np.log1p(x * x))
    return magnitude * np.cos((t / tau) * np.arctan(x))


def gaussian_kernel(
    omega: np.ndarray | float, g: float, tau: float, t: float
) -> np.ndarray | float:
    """cos(omega g t) exp(-omega^2 g^2 t tau / 2), elementwise."""
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
) -> MonteCarloEstimate:
    """Sample estimate of E[cos(omega A)] with its standard error."""
    if t <= 0.0:
        raise ValueError("t must be positive")
    if model.tau == 0.0:
        return MonteCarloEstimate(
            mean=float(np.cos(omega * model.g_mean * t)),
            standard_error=0.0,
            n_samples=model.mc_samples,
        )
    if rng is None:
        rng = np.random.default_rng(model.seed)
    draws = sample_pulse_areas(model.g_mean, model.tau, t, rng, model.mc_samples)
    values = np.cos(omega * draws)
    stderr = 0.0
    if model.mc_samples > 1:
        stderr = float(values.std(ddof=1) / np.sqrt(model.mc_samples))
    return MonteCarloEstimate(float(values.mean()), stderr, model.mc_samples)


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
    """
    if not 0.0 < t < math.inf:
        raise ValueError(f"t must be finite and positive, got {t}")
    g, tau = model.g_mean, model.tau
    if taus is not None:
        tau = np.array([_check_tau(float(value)) for value in taus])[:, np.newaxis]
        if model.mode == "monte_carlo" or not np.all(tau > 0.0):
            raise ValueError("a column of taus needs an analytic mode and positive taus")
    elif tau == 0.0:
        return np.cos(omegas * g * t)
    if model.mode == "gamma_exact":
        return gamma_kernel(omegas, g, tau, t)
    if model.mode == "gaussian_approx":
        return gaussian_kernel(omegas, g, tau, t)
    if rng is None:
        rng = np.random.default_rng(model.seed)
    draws = sample_pulse_areas(g, tau, t, rng, model.mc_samples)
    rows = max(1, MC_BLOCK_PAIRS // draws.size)
    return np.concatenate([
        np.cos(np.multiply.outer(omegas[start:start + rows], draws)).mean(axis=1)
        for start in range(0, omegas.size, rows)
    ])


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

