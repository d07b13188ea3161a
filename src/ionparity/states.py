"""Truncated two-mode Fock-space containers shared by every other module.

States live on a dense rectangular amplitude grid over the basis
|n_a, n_b> with 0 <= n_a <= cutoff_a and 0 <= n_b <= cutoff_b.  All
containers are immutable after construction and safe to share across
concurrent sweep workers.  ``_checked_times`` is the one time check of every
evolution route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Relative slack for the coupling consistency rule g = omega * eta^2 * exp(-eta^2/2).
COUPLING_CONSISTENCY_RTOL = 1e-6


def _frozen_grid(values: object) -> np.ndarray:
    grid = np.array(values, dtype=np.complex128, copy=True)
    if grid.ndim != 2:
        raise ValueError(f"amplitude grid must be 2-D, got shape {grid.shape}")
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


@dataclass(frozen=True)
class VibronicState:
    """Joint state of the internal two-level system and the two modes.

    ``minus_component`` is the vibrational part attached to the internal
    ground level |->, ``plus_component`` the part attached to |+>.  Both
    components must live on the same grid.  A physical state has total
    squared norm 1.
    """

    minus_component: TwoModeState
    plus_component: TwoModeState

    def __post_init__(self) -> None:
        if self.minus_component.amplitudes.shape != self.plus_component.amplitudes.shape:
            raise ValueError("minus and plus components must share cutoffs")

    @property
    def cutoff_a(self) -> int:
        return self.minus_component.cutoff_a

    @property
    def cutoff_b(self) -> int:
        return self.minus_component.cutoff_b

    def total_squared_norm(self) -> float:
        return self.minus_component.squared_norm() + self.plus_component.squared_norm()


@dataclass(frozen=True)
class PhysicalParams:
    """Physical rates of the driven ion, all angular frequencies in rad/s.

    Any subset may be supplied; operations validate that the fields they
    need are present.  Every given field must be finite; ``g`` and ``nu``
    must be strictly positive, ``omega`` and ``eta_ld`` admit zero as a
    degenerate limit.
    When ``g``, ``omega`` and ``eta_ld`` are all given, the consistency
    rule g = omega * eta_ld^2 * exp(-eta_ld^2 / 2) is enforced at
    construction.
    """

    g: float | None = None          # effective pair-exchange coupling
    nu: float | None = None         # trap frequency
    omega: float | None = None      # Rabi frequency of the drive
    eta_ld: float | None = None     # Lamb-Dicke parameter (dimensionless)

    def __post_init__(self) -> None:
        for name in ("g", "nu"):
            value = getattr(self, name)
            if value is not None and not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be finite and positive, got {value}")
        # zero drive amplitude / zero Lamb-Dicke parameter are valid limits
        for name in ("omega", "eta_ld"):
            value = getattr(self, name)
            if value is not None and not 0.0 <= value < math.inf:
                raise ValueError(f"{name} must be finite and non-negative, got {value}")
        if self.g is not None and self.omega is not None and self.eta_ld is not None:
            expected = self.effective_coupling()
            if abs(self.g - expected) > COUPLING_CONSISTENCY_RTOL * expected:
                raise ValueError(
                    f"inconsistent coupling: g={self.g} but "
                    f"omega*eta_ld^2*exp(-eta_ld^2/2)={expected}"
                )

    def effective_coupling(self) -> float:
        """omega * eta_ld^2 * exp(-eta_ld^2 / 2); requires omega and eta_ld."""
        if self.omega is None or self.eta_ld is None:
            raise ValueError("effective_coupling requires omega and eta_ld")
        eta2 = self.eta_ld**2
        return self.omega * eta2 * float(np.exp(-eta2 / 2.0))
