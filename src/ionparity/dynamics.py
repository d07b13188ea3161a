"""Closed-form vibronic dynamics of the pair-exchange coupling.

An initial state with N total quanta distributed binomially over
|N-k, k> and the internal system in |-> stays exactly solvable: each
k-sector oscillates independently at its own rate

    f_k = 2 * g * sqrt((N - k) * k)

so the component attached to |-> is sum_k P_k cos(f_k t) |N-k, k>, the
component attached to |+> is -i sum_{k=1}^{N-1} P_k sin(f_k t) |N-k-1, k-1>,
and the ground-level probability is

    c(t) = 1/2 * [1 + sum_k |P_k|^2 cos(2 f_k t)].

The initial amplitudes are the two-mode SU(2) spin-coherent state of spin
j = N/2,

    |tau; j> = (1 + |tau|^2)^(-j) sum_k sqrt(C(2j, k)) tau^k |2j-k, k>,

at tau = 1: P_k = 2^(-N/2) sqrt(C(N, k)), so |P_k|^2 = 2^-N C(N, k) is the
binomial distribution of the N quanta over the two modes
(``symmetric_binomial_amplitudes``).  Everything here is a pure function of
its arguments.  The state is evaluated over a whole array of times at once
by ``evolve_closed_form`` on the smallest grid holding both components,
cutoff N in each mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .states import _checked_times


def symmetric_binomial_amplitudes(n_total: int) -> np.ndarray:
    """Amplitudes P_k = 2^(-N/2) sqrt(C(N, k)) for k = 0..N of the tau = 1
    spin-coherent state, accurate at any N.

    Built from cumulative products of the ratios P_k / P_(k-1) so no factorial
    ever overflows.  While the start value P_0 is a normal float (up to
    N = 2044) the product runs from P_0.  Past that P_0 would lose bits and
    then round to 0, so the product runs outward from the largest amplitude,
    set to 1, where every ratio is at most one, and is normalised.
    """
    if n_total < 0:
        raise ValueError("n_total must be non-negative")
    k, rest = np.arange(1, n_total + 1), np.arange(n_total, 0, -1)  # rest = N - k + 1
    ratios = np.sqrt(rest / k)
    start = 2.0 ** (-n_total / 2.0)
    if start >= np.finfo(float).tiny:
        return np.cumprod(np.concatenate(([start], ratios)))
    peak = int(np.count_nonzero(ratios > 1.0))
    below = np.sqrt(k[:peak] / rest[:peak])[::-1]  # P_(k-1) / P_k
    amplitudes = np.concatenate((np.cumprod(below)[::-1], [1.0], np.cumprod(ratios[peak:])))
    return amplitudes / np.sqrt(amplitudes @ amplitudes)


@dataclass(frozen=True)
class RabiSpectrum:
    """Oscillation rates and weights governing the N-quanta dynamics.

    frequencies[k] = 2 g sqrt((N-k) k) (rad/s), symmetric under k -> N-k
    with zeros at both ends; weights[k] = 2^-N C(N, k), summing to one.
    """

    n_total: int
    frequencies: np.ndarray
    weights: np.ndarray


def _fastest_rate(n_total: int, g: float) -> float:
    """The largest rate 2 g sqrt((N-k) k), at k = N // 2, as the spectrum forms it."""
    return 2.0 * g * math.sqrt((n_total - n_total // 2) * (n_total // 2))


def rabi_spectrum(n_total: int, g: float) -> RabiSpectrum:
    if g <= 0.0:
        raise ValueError("g must be positive")
    k = np.arange(n_total + 1)
    fastest = _fastest_rate(n_total, g)
    if not fastest < math.inf:  # inf, or inf * 0 = nan where N < 2
        raise ValueError(f"g = {g} puts the fastest rate 2 g sqrt((N-k)k) of N = {n_total} "
                         f"at {fastest} rad/s, outside the finite floats")
    freqs = 2.0 * g * np.sqrt((n_total - k) * k)
    weights = symmetric_binomial_amplitudes(n_total) ** 2
    freqs.flags.writeable = False
    weights.flags.writeable = False
    return RabiSpectrum(n_total=n_total, frequencies=freqs, weights=weights)


def evolve_closed_form(n_total: int, g: float, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact amplitude grids (minus, plus) of the |-> and |+> components, each
    of shape (times, N + 1, N + 1), at every time of the 1-D array ``times``
    (each finite and >= 0) from the binomial N-quanta initial state: the
    anti-diagonals |N-k, k> and |N-k-1, k-1> are filled for all times at once.
    Total norm is 1 at every (N, t)."""
    if n_total < 0:
        raise ValueError("n_total must be non-negative")
    times = _checked_times(times, ndim=1)
    amps = symmetric_binomial_amplitudes(n_total)
    freqs = rabi_spectrum(n_total, g).frequencies
    phases = np.multiply.outer(times, freqs)
    k = np.arange(n_total + 1)
    minus = np.zeros((len(times), n_total + 1, n_total + 1), dtype=np.complex128)
    plus = np.zeros_like(minus)
    minus[:, n_total - k, k] = amps * np.cos(phases)
    inner = k[1:n_total]
    plus[:, n_total - inner - 1, inner - 1] = -1j * amps[inner] * np.sin(phases[:, inner])
    return minus, plus


def ground_probability(n_total: int, g: float, t):
    """Probability c(t) of finding the internal system in |->.

    Accepts a scalar or array of finite, non-negative times; returns the
    matching shape.
    """
    spec = rabi_spectrum(n_total, g)
    times = _checked_times(t)
    phases = 2.0 * np.multiply.outer(times, spec.frequencies)
    c = 0.5 * (1.0 + np.cos(phases) @ spec.weights)
    return float(c) if np.isscalar(t) or times.ndim == 0 else c


def binary_entropy(p):
    """-p ln p - (1-p) ln(1-p), with the limit value 0 at p in {0, 1}."""
    arr = np.clip(np.asarray(p, dtype=float), 0.0, 1.0)
    out = np.zeros_like(arr)
    interior = (arr > 0.0) & (arr < 1.0)
    q = arr[interior]
    out[interior] = -(q * np.log(q) + (1.0 - q) * np.log(1.0 - q))
    return float(out) if np.isscalar(p) or arr.ndim == 0 else out


def vibrational_entropy(n_total: int, g: float, t):
    """Entanglement entropy (nats) between vibration and internal state.

    For this dynamics the reduced spectrum is {c, 1-c}, so the entropy is
    the binary entropy of the ground probability, bounded by ln 2.
    """
    return binary_entropy(ground_probability(n_total, g, t))


def von_neumann_entropy(density: np.ndarray):
    """-Tr[rho ln rho] via the eigenvalue spectrum; zero eigenvalues add 0.

    Takes one matrix (returns a float) or a (..., d, d) stack of them
    (returns one entropy per matrix).
    """
    evals = np.clip(np.linalg.eigvalsh(np.asarray(density)), 0.0, None)
    entropy = -np.sum(evals * np.log(np.where(evals > 0.0, evals, 1.0)), axis=-1)
    return float(entropy) if entropy.ndim == 0 else entropy


@dataclass(frozen=True)
class ParityTimes:
    """Characteristic instants of the parity effect for a given N.

    For odd N: ``revival_time`` = pi (N-1) / (4 g) is the instant near
    which the ground probability returns close to one,
    ``entangle_time`` = pi (N+1) / (4 g) is the maximal-entanglement
    instant of the even partner N+1, and ``comparison_time`` =
    pi (2N-1) / (8 g) -- the midpoint of pi (N-1)/(4 g) and pi N/(4 g) --
    is the single instant at which odd-N and even-(N+1) runs are compared.

    For even N only ``entangle_time`` = pi N / (4 g) is defined.
    """

    n_total: int
    revival_time: float | None
    entangle_time: float
    comparison_time: float | None


def parity_times(n_total: int, g: float) -> ParityTimes:
    if n_total < 2:
        raise ValueError("n_total must be at least 2")
    if g <= 0.0:
        raise ValueError("g must be positive")
    if n_total % 2 == 1:
        return ParityTimes(
            n_total=n_total,
            revival_time=np.pi * (n_total - 1) / (4.0 * g),
            entangle_time=np.pi * (n_total + 1) / (4.0 * g),
            comparison_time=np.pi * (2 * n_total - 1) / (8.0 * g),
        )
    return ParityTimes(
        n_total=n_total,
        revival_time=None,
        entangle_time=np.pi * n_total / (4.0 * g),
        comparison_time=None,
    )
