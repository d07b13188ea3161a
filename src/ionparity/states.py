"""Truncated two-mode Fock-space container shared by every other module.

A ``TwoModeState`` is a dense rectangular amplitude grid over the basis
|n_a, n_b> with 0 <= n_a <= cutoff_a and 0 <= n_b <= cutoff_b.  It is the
initial state of both propagators: the vibrational part attached to the
internal ground level |->, in which the ion starts, so the |+> part starts
empty.  It is immutable after construction and safe to share across
concurrent sweep workers.  ``_checked_times`` is the one time check of every
evolution route, and ``effective_coupling`` the one formula of a drive's
pair-exchange coupling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def _frozen_grid(values: object) -> np.ndarray:
    grid = np.array(values, dtype=np.complex128, copy=True)
    if grid.ndim != 2 or 0 in grid.shape:
        raise ValueError(f"amplitude grid must be 2-D and non-empty, got shape {grid.shape}")
    if not np.all(np.isfinite(grid.view(np.float64))):
        raise ValueError("amplitude grid contains non-finite entries")
    grid.flags.writeable = False
    return grid


def _checked_times(t: object, ndim: int | None = None) -> np.ndarray:
    """``t`` (a scalar or an array of times) as a float array of ``ndim``
    dimensions (any if None), each time finite and non-negative."""
    times = np.asarray(t, dtype=float)
    if ndim is not None and times.ndim != ndim:
        raise ValueError(f"times must be a {ndim}-D array, got shape {times.shape}")
    if not np.all((0.0 <= times) & (times < math.inf)):
        raise ValueError("t must be finite and non-negative")
    return times


@dataclass(frozen=True)
class TwoModeState:
    """Pure state of the two vibrational modes on a truncated Fock grid.

    ``amplitudes[n_a, n_b]`` is the coefficient of |n_a, n_b>.  Amplitudes
    outside the cutoffs are identically zero by construction (they are not
    representable).  The grid is stored read-only.
    """

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "amplitudes", _frozen_grid(self.amplitudes))

    @property
    def cutoff_a(self) -> int:
        return self.amplitudes.shape[0] - 1

    @property
    def cutoff_b(self) -> int:
        return self.amplitudes.shape[1] - 1

    def squared_norm(self) -> float:
        return float(np.sum(np.abs(self.amplitudes) ** 2))


def effective_coupling(omega: float, eta_ld: float) -> float:
    """Pair-exchange coupling omega * eta_ld^2 * exp(-eta_ld^2 / 2) of a drive
    of Rabi frequency omega (rad/s) and Lamb-Dicke parameter eta_ld; a pair
    past the floats gives inf or nan, never OverflowError."""
    eta2 = eta_ld * eta_ld
    return omega * eta2 * float(np.exp(-eta2 / 2.0))
