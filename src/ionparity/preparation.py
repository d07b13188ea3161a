"""Imperfect initial-state preparation as a Gaussian-weighted Fock mixture.

A preparation aiming for the quantum number N actually delivers the
classical mixture with weights w_m proportional to exp(-(m-N)^2 / 2 Delta^2)
over m = 0, 1, ..., truncated at m = N + ceil(8 Delta) and renormalized
(the discarded tail mass is below 1e-14).  The preparation efficiency is
eta = 1 - w_{N+1}/w_N = 1 - exp(-1 / 2 Delta^2), so Delta -> 0 is the exact
Fock state with eta = 1; a width so narrow that 2 Delta^2 is no normal
float gives that limit, a single term of weight 1.  Every term m keys its
own m/2 + 1 values of p, so the keys of a mixture grow as the square of its
width; a width whose mixture would hold more than ``MAX_MIXTURE_KEYS`` keys
is rejected before anything is allocated, and so is an exact state whose
N/2 + 1 keys would.

A mixed observable is no loop over pure runs: ``terms()`` gives the totals
m and weights, and ``fluctuations.mixture_ground_probabilities`` takes the
terms of any number of preparations to one weighted sum each over the
distinct keys p = (N-k)k of all their terms, every term averaged over the
same Monte-Carlo draws; terms whose weight underflows to 0.0 are dropped
there.  The two targets of a parity comparison (``parity_delta_mixed``)
share one such call, so they also share their draws, and given a column of
taus (analytic modes) a whole sweep curve over tau or over the efficiency is
one call.  The exact state is the pure run itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fluctuations import (
    FluctuationModel,
    averaged_ground_probability,
    mixture_ground_probabilities,
)

# Keys p that the terms of one mixture may hold together; the weight matrix
# of a sweep keeps a few arrays of this length per preparation (a tau-sweep
# at the limit peaks near 200 MB).
MAX_MIXTURE_KEYS = 1 << 20

# exp(-x) is 0.0 in floating point for x above 745.2, so a term farther than
# this many widths from the target has weight 0.0.
ZERO_WEIGHT_WIDTHS = math.sqrt(2.0 * 745.2)


def efficiency(delta: float | None) -> float:
    """Preparation efficiency 1 - exp(-1 / 2 Delta^2); None means exact (1.0)."""
    if delta is None:
        return 1.0
    if not 0.0 < delta < math.inf:
        raise ValueError(f"delta must be finite and positive (or None), got {delta}")
    variance = 2.0 * delta * delta
    return 1.0 if variance == 0.0 else 1.0 - math.exp(-1.0 / variance)


def delta_from_efficiency(eta_prep: float) -> float:
    """Width Delta achieving the given efficiency, inverse of ``efficiency``.

    Only defined on the open interval 0 < eta_prep < 1, and only where
    1 - eta_prep differs from 1; an exact state (eta_prep = 1) is
    represented by delta = None.
    """
    if not (0.0 < eta_prep < 1.0):
        raise ValueError(f"efficiency must lie in (0, 1), got {eta_prep}")
    if 1.0 - eta_prep == 1.0:
        raise ValueError(f"efficiency {eta_prep} is too small: 1 - {eta_prep} rounds to 1")
    return 1.0 / math.sqrt(-2.0 * math.log(1.0 - eta_prep))


def _mixture_keys(n_target: int, delta: float) -> float:
    """Upper bound on the keys p held by the terms of non-zero weight: term m
    holds m // 2 + 1 of them, and these terms lie in
    max(0, N - ZERO_WEIGHT_WIDTHS Delta) <= m <= N + 8 Delta + 1."""
    high = n_target + 8.0 * delta + 1.0
    low = max(0.0, n_target - ZERO_WEIGHT_WIDTHS * delta)
    return (high - low + 1.0) * ((high + low) / 4.0 + 1.0)


def _check_exact_state(n_target: int, name: str | None = None) -> None:
    """Raise ValueError when the exact state of n_target holds more than
    ``MAX_MIXTURE_KEYS`` keys p (n_target // 2 + 1; every mixture around
    n_target holds them too).  The message names the target as ``name``,
    by default "n = n_target"."""
    keys = n_target // 2 + 1
    if keys > MAX_MIXTURE_KEYS:
        raise ValueError(f"{name or f'n = {n_target}'} puts {keys} keys p in the exact state, "
                         f"above the limit of {MAX_MIXTURE_KEYS}")


@dataclass(frozen=True)
class PreparationModel:
    """Gaussian mixture of Fock states centered on ``n_target``.

    ``delta=None`` flags the exact state (single term at n_target).
    """

    n_target: int
    delta: float | None = None

    def __post_init__(self) -> None:
        if self.n_target < 0:
            raise ValueError("n_target must be non-negative")
        efficiency(self.delta)  # rejects a delta that is not finite and positive
        if self.delta is None:
            _check_exact_state(self.n_target)
            return
        keys = _mixture_keys(self.n_target, self.delta)
        if keys > MAX_MIXTURE_KEYS:
            raise ValueError(f"delta = {self.delta} spreads the mixture around "
                             f"n = {self.n_target} over about {keys:.3g} keys p, "
                             f"above the limit of {MAX_MIXTURE_KEYS}")

    def terms(self, extra: int = 0) -> tuple[np.ndarray, np.ndarray]:
        """Mixture support m = 0..m_max and normalized weights; the exact
        state is the single term n_target of weight 1.

        ``extra`` widens the truncation, used to verify that the default
        m_max = n_target + ceil(8 Delta) is already converged.
        """
        variance = None if self.delta is None else 2.0 * self.delta**2
        # a width whose 2 Delta^2 is no normal float is the exact state too:
        # (m - N)^2 / variance would be 0/0 or overflow
        if variance is None or variance < np.finfo(float).tiny:
            return np.array([self.n_target]), np.array([1.0])
        m_max = self.n_target + math.ceil(8.0 * self.delta) + extra
        m = np.arange(0, m_max + 1)
        weights = np.exp(-((m - self.n_target) ** 2) / variance)
        return m, weights / weights.sum()


def averaged_ground_probability_mixed(
    prep: PreparationModel,
    model: FluctuationModel,
    t: float,
    extra_terms: int = 0,
) -> float:
    """Mixture-averaged ground probability sum_m w_m P_m(t), one weighted sum
    over the keyed spectra of the terms; the m = 0 term is the stationary
    vacuum and contributes 1.
    """
    if prep.delta is None:
        return averaged_ground_probability(prep.n_target, model, t)
    return float(mixture_ground_probabilities((prep.terms(extra=extra_terms),), model, t)[0])


def parity_delta_mixed(
    n_odd: int,
    delta: float | None,
    model: FluctuationModel,
    t_compare: float,
) -> float:
    """Parity visibility with both runs prepared through the same mixture
    width: targets n_odd and n_odd + 1, compared at t_compare."""
    if n_odd % 2 == 0 or n_odd < 3:
        raise ValueError(f"n_odd must be odd and >= 3, got {n_odd}")
    mixtures = [PreparationModel(n, delta).terms() for n in (n_odd, n_odd + 1)]
    upper, lower = mixture_ground_probabilities(mixtures, model, t_compare)
    return float(upper - lower)
