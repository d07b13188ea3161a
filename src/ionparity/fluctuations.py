"""Non-dissipative decoherence from a fluctuating drive intensity.

The accumulated pulse area A(t) = integral of the instantaneous coupling
is modelled as Gamma-distributed with shape t/tau and scale g*tau, so
<A> = g t and var(A) = g^2 t tau.  Observables are averaged over A; three
interchangeable kernels for E[cos(omega A)] are provided:

    gamma_exact     Re[(1 - i omega g tau)^(-t/tau)]   (characteristic function)
    gaussian_approx cos(omega g t) exp(-omega^2 g^2 t tau / 2)
    monte_carlo     seeded sample mean over explicit Gamma draws

tau = 0 degenerates to the deterministic area A = g t in every mode.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import rabi_spectrum

MODES = ("gamma_exact", "gaussian_approx", "monte_carlo")


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
        if self.g_mean <= 0.0:
            raise ValueError("g_mean must be positive")
        if self.tau < 0.0:
            raise ValueError("tau must be non-negative")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.mc_samples < 1:
            raise ValueError("mc_samples must be at least 1")


@dataclass(frozen=True)
class MonteCarloEstimate:
    mean: float
    standard_error: float
    n_samples: int


def gamma_kernel(omega: float, g: float, tau: float, t: float) -> float:
    """Re[(1 - i omega g tau)^(-t/tau)] on the principal branch.

    Evaluated in polar form with log1p so tiny omega*g*tau stays accurate.
    """
    x = omega * g * tau
    magnitude = np.exp(-(t / (2.0 * tau)) * np.log1p(x * x))
    return float(magnitude * np.cos((t / tau) * np.arctan(x)))


def gaussian_kernel(omega: float, g: float, tau: float, t: float) -> float:
    decay = np.exp(-(omega**2) * g**2 * t * tau / 2.0)
    return float(np.cos(omega * g * t) * decay)


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


def averaged_cosine(
    omega: float, t: float, model: FluctuationModel, rng: np.random.Generator | None = None
) -> float:
    """E[cos(omega A)] under the model's kernel.

    Raises ValueError for t <= 0: the Gamma shape t/tau must be positive.
    """
    if t <= 0.0:
        raise ValueError("t must be positive")
    if model.tau == 0.0:
        return float(np.cos(omega * model.g_mean * t))
    if model.mode == "gamma_exact":
        return gamma_kernel(omega, model.g_mean, model.tau, t)
    if model.mode == "gaussian_approx":
        return gaussian_kernel(omega, model.g_mean, model.tau, t)
    return monte_carlo_cosine(omega, t, model, rng=rng).mean


def _area_frequencies(n_total: int) -> tuple[np.ndarray, np.ndarray]:
    # Ground-probability phases are 2 f_k t = (4 sqrt((N-k)k)) * (g t), so the
    # frequency conjugate to the pulse area A = g t is 4 sqrt((N-k)k).
    spec = rabi_spectrum(n_total, 1.0)
    return 2.0 * spec.frequencies, spec.weights


def averaged_ground_probability(
    n_total: int,
    model: FluctuationModel,
    t: float,
    rng: np.random.Generator | None = None,
) -> float:
    """Fluctuation-averaged ground-level probability at time t > 0.

    Applies the model's kernel to every oscillating term:

        P(t) = 1/2 [1 + sum_k w_k E[cos(4 sqrt((N-k)k) A)]]

    In monte_carlo mode a single set of area draws is shared by all
    terms, which is the direct average of the probability itself.
    """
    if n_total < 0:
        raise ValueError("n_total must be non-negative")
    if t <= 0.0:
        raise ValueError("t must be positive")
    omegas, weights = _area_frequencies(n_total)
    g, tau = model.g_mean, model.tau
    if tau == 0.0:
        kernels = np.cos(omegas * g * t)
    elif model.mode == "gamma_exact":
        kernels = np.array([gamma_kernel(om, g, tau, t) for om in omegas])
    elif model.mode == "gaussian_approx":
        kernels = np.cos(omegas * g * t) * np.exp(-(omegas**2) * g**2 * t * tau / 2.0)
    else:
        if rng is None:
            rng = np.random.default_rng(model.seed)
        draws = sample_pulse_areas(g, tau, t, rng, model.mc_samples)
        kernels = np.cos(np.multiply.outer(omegas, draws)).mean(axis=1)
    return float(0.5 * (1.0 + weights @ kernels))


def parity_delta(
    n_odd: int,
    model: FluctuationModel,
    t_compare: float,
    rng: np.random.Generator | None = None,
) -> float:
    """Ground-probability difference between N = n_odd and N = n_odd + 1
    at the comparison instant, the visibility figure of the parity effect.

    With rng left as None both runs derive their draws from the model
    seed, so monte_carlo mode averages both terms over common areas.
    """
    if n_odd % 2 == 0 or n_odd < 3:
        raise ValueError(f"n_odd must be odd and >= 3, got {n_odd}")
    upper = averaged_ground_probability(n_odd, model, t_compare, rng=rng)
    lower = averaged_ground_probability(n_odd + 1, model, t_compare, rng=rng)
    return upper - lower
