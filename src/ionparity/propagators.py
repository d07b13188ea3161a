"""Independent numerical propagators used to validate the closed forms.

Two Hamiltonians are implemented over the truncated vibronic basis
|n_a, n_b> x {|->, |+>}.  Both couple only |-> to |+>, so each is held as
its coupling block W alone, with H = [[0, W], [W^dag, 0]]:

* the static pair-exchange model H = coupling * (a b sigma+ + h.c.),
  which decomposes into closed two-level blocks
  |n_a, n_b>|->  <->  |n_a - 1, n_b - 1>|+> rotating at
  coupling * sqrt(n_a n_b), evolved exactly block by block;

* the time-dependent drive of two counter-phased beams along the diagonal
  mode directions, expanded to a configurable total power of the
  Lamb-Dicke parameter and solved exactly in its rotating frame.  One
  ``Drive`` value fixes it: omega, nu, eta_ld and the expansion order.

The drive's minus-to-plus block is W(t) = sum_m e^{i m nu t} W_m over its
few harmonics m.  Each term of W is y^k^dag y^j - x^k^dag x^j in the
diagonal modes x, y, with m = k - j - 2, so W_m changes the total quanta
N = n_a + n_b by exactly m + 2.  Hence H(t) = e^{iKt} H_c e^{-iKt}, with
the diagonal K = nu (N + sigma_z) (sigma_z = -1 on |->) and the constant
H_c of block sum_m W_m, and psi(t) = e^{iKt} e^{-i (H_c + K) t} psi(0)
(Shirley, Phys. Rev. 138, B979, 1965).  The parity P = (-1)^{n_a} swaps x
and y, so P W_m P = -W_m exactly in floating point, and P (x) sigma_z
splits H_c + K into two sectors, (|-> even; |+> odd) and
(|-> odd; |+> even), solved by one stacked ``eigh``.  Its eigenvalues lie
near nu n for integers n, the levels N + sigma_z, but are resolved only to
within eps |K|: over validate's times t ~ 1 / (omega eta^2) that moved the
states by 3e-4 at eta_ld 1e-5, and by O(1) at 1e-8.  So the eigenvectors
of each level are solved again from v_l^dag (H_c + K - nu n) v_j, whose
K - nu n is exact, in one more stacked ``eigh``; and every phase of an
integer times nu is read at t modulo 2 pi / nu, where it cancels exactly
on its level.  No state depends on a step size or on the other times.

Both propagators map an initial |-> grid, a ``TwoModeState`` (the ion
starts in its ground level, so the |+> grid starts empty), and a 1-D array
of times to the layout of ``dynamics.evolve_closed_form``: (minus, plus)
amplitude stacks of shape (times, cutoff_a + 1, cutoff_b + 1).  Closed-form
runs with rate g correspond to the pair-exchange propagator with
coupling = 2 g, and the drive's static part to coupling
omega eta^2 exp(-eta^2/2).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .states import TwoModeState, _checked_times, effective_coupling


def pair_exchange_matrix(coupling: float, cutoff_a: int, cutoff_b: int) -> np.ndarray:
    """Coupling block W of coupling * (a b sigma+ + a^dag b^dag sigma-): its
    only elements couple |n_a, n_b>|-> to |n_a - 1, n_b - 1>|+> at
    coupling * sqrt(n_a n_b)."""
    if not 0.0 < coupling < math.inf:
        raise ValueError(f"coupling must be finite and positive, got {coupling}")
    if cutoff_a < 0 or cutoff_b < 0:
        raise ValueError("cutoffs must be non-negative")
    grid_size = (cutoff_a + 1) * (cutoff_b + 1)
    na, nb = np.meshgrid(np.arange(1, cutoff_a + 1), np.arange(1, cutoff_b + 1), indexing="ij")
    i_minus = na * (cutoff_b + 1) + nb
    i_plus = i_minus - (cutoff_b + 2)  # the index of |n_a - 1, n_b - 1> in the |+> grid
    block = np.zeros((grid_size, grid_size), dtype=np.complex128)
    block[i_minus, i_plus] = coupling * np.sqrt(na * nb)
    return block


def propagate_effective(
    initial: TwoModeState, coupling: float, times: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(minus, plus) stacks of the |-> grid ``initial`` evolved under the
    pair-exchange Hamiltonian to each time of ``times`` (finite and
    non-negative).

    Every two-level block is rotated exactly, at all times in one broadcast,
    so the result carries no step-size error.
    """
    if not 0.0 < coupling < math.inf:
        raise ValueError(f"coupling must be finite and positive, got {coupling}")
    times = _checked_times(times, ndim=1)
    m_start = initial.amplitudes
    ca, cb = initial.cutoff_a, initial.cutoff_b
    minus = np.repeat(m_start[np.newaxis], len(times), axis=0)
    plus = np.zeros_like(minus)
    quanta = np.multiply.outer(np.arange(1.0, ca + 1.0), np.arange(1.0, cb + 1.0))
    phases = np.multiply.outer(times, coupling * np.sqrt(quanta))
    minus[:, 1:, 1:] = np.cos(phases) * m_start[1:, 1:]
    plus[:, :ca, :cb] = -1j * np.sin(phases) * m_start[1:, 1:]
    return minus, plus


@dataclass(frozen=True)
class Drive:
    """Two counter-phased beams of Rabi frequency ``omega`` on a trap of
    frequency ``nu`` (both rad/s) with Lamb-Dicke parameter ``eta_ld`` in
    [0, 1), expanded to total power ``expansion_order`` >= 2 of eta.  A bad
    field raises ValueError naming it."""

    omega: float
    nu: float
    eta_ld: float
    expansion_order: int

    def __post_init__(self) -> None:
        if not 0.0 <= self.omega < math.inf:
            raise ValueError(f"omega must be finite and non-negative, got {self.omega}")
        if not 0.0 < self.nu < math.inf:
            raise ValueError(f"nu must be finite and positive, got {self.nu}")
        if not 0.0 <= self.eta_ld < 1.0:
            raise ValueError(f"eta_ld must lie in [0, 1), got {self.eta_ld}")
        if not self.expansion_order >= 2:
            raise ValueError("expansion_order below 2 cannot represent the pair-exchange "
                             f"process, got {self.expansion_order}")

    @property
    def coupling(self) -> float:
        """The static part's pair-exchange coupling, omega eta^2 exp(-eta^2/2)."""
        return effective_coupling(self.omega, self.eta_ld)


class _Sectors(NamedTuple):
    """The two parity sectors of a drive and the eigensystem of H_c + K in each."""

    order: np.ndarray  # (2, size): each sector's indices into the full state vector
    levels: np.ndarray  # (2, size): the integer n of each eigenvalue nu n + shift
    shifts: np.ndarray  # (2, size): each eigenvalue less its nu n
    vectors: np.ndarray  # (2, size, size): the eigenvectors, one per column


class LambDickeHamiltonian:
    """Drive Hamiltonian of the two counter-phased beams, expanded in eta.

    Retains every operator product with total power j + k <= the drive's
    expansion_order of the diagonal-mode ladder operators, each oscillating
    at (k - j - 2) * nu in the rotating frame.  ``blocks[i]`` is the coupling
    block W_m of harmonic m = ``harmonics[i]``; at expansion_order = 2 the
    static block (m = 0) is ``pair_exchange_matrix`` with the drive's
    ``coupling``, the beam labeling fixed so that term enters with a plus
    sign.  ``levels`` is the diagonal of N + sigma_z, so that K = nu levels
    turns the drive into the constant H_c + K (see the module docstring).
    """

    def __init__(self, drive: Drive, cutoff_a: int, cutoff_b: int) -> None:
        self.drive = drive
        self.cutoff_a = cutoff_a
        self.cutoff_b = cutoff_b
        self.grid_size = (cutoff_a + 1) * (cutoff_b + 1)

        lower_a, lower_b = (np.diag(np.sqrt(np.arange(1.0, cut + 1.0)), 1)
                            for cut in (cutoff_a, cutoff_b))
        a_full = np.kron(lower_a, np.eye(cutoff_b + 1))
        b_full = np.kron(np.eye(cutoff_a + 1), lower_b)
        mode_x = (a_full + b_full) / math.sqrt(2.0)
        mode_y = (b_full - a_full) / math.sqrt(2.0)

        order = drive.expansion_order
        # lowering powers v^j of each diagonal mode; a raising power is (v^k)^dag
        x_pows = [np.linalg.matrix_power(mode_x, power) for power in range(order + 1)]
        y_pows = [np.linalg.matrix_power(mode_y, power) for power in range(order + 1)]

        eta = drive.eta_ld
        prefactor = drive.omega * math.exp(-(eta**2) / 2.0)
        terms: dict[int, np.ndarray] = {}
        for j in range(order + 1):
            for k in range(order + 1 - j):
                if j == 0 and k == 0:
                    continue  # identical in both beams, cancels exactly
                harmonic = k - j - 2
                coeff = prefactor * (-1j * eta) ** (j + k) / (math.factorial(j) * math.factorial(k))
                op = y_pows[k].conj().T @ y_pows[j] - x_pows[k].conj().T @ x_pows[j]
                terms[harmonic] = terms.get(harmonic, 0.0) + coeff * op

        self.harmonics = np.array(sorted(terms), dtype=float)
        self.blocks = np.stack([terms[int(m)] for m in self.harmonics])

    @functools.cached_property
    def levels(self) -> np.ndarray:
        """The diagonal of N + sigma_z, integers held as floats, over the state
        vector: the |-> grid (sigma_z = -1), then the |+> grid, each row-major
        over (n_a, n_b), the order of the coupling blocks' rows and columns."""
        quanta = np.add.outer(np.arange(self.cutoff_a + 1.0), np.arange(self.cutoff_b + 1.0))
        return np.concatenate([quanta.ravel() - 1.0, quanta.ravel() + 1.0])

    def coupling(self, t: np.ndarray) -> np.ndarray:
        """W(t) = sum_m e^{i m nu t} W_m at each time of the 1-D array t,
        shape (times, size, size): the drive as it is defined."""
        phases = np.exp(1j * np.multiply.outer(t, self.harmonics * self.drive.nu))
        return np.tensordot(phases, self.blocks, axes=1)

    def frame_coupling(self, t: np.ndarray) -> np.ndarray:
        """The |->|+> block of e^{iKt} H_c e^{-iKt}, which the exact route solves,
        at each time of the 1-D array t: entry (r, c) of sum_m W_m turned by
        e^{i (K_r - K_c) t}, ``coupling(t)`` where each W_m changes N by m + 2."""
        size = self.grid_size
        rates = self.drive.nu * np.subtract.outer(self.levels[:size], self.levels[size:])
        return self.blocks.sum(axis=0) * np.exp(1j * np.multiply.outer(t, rates))

    @functools.cached_property
    def _sectors(self) -> _Sectors:
        """The two parity sectors of P (x) sigma_z, of the cells whose n_a
        parity plus |+> flag is even (s = 0) or odd (s = 1), and the
        eigensystem of H_c + K in each (see the module docstring)."""
        size, nu = self.grid_size, self.drive.nu
        cell = np.arange(2 * size)
        sector = (cell % size // (self.cutoff_b + 1) + cell // size) % 2
        order = np.stack([np.flatnonzero(sector == 0), np.flatnonzero(sector == 1)])
        static = self.blocks.sum(axis=0)
        coupled = np.zeros((2 * size, 2 * size), dtype=np.complex128)
        coupled[:size, size:] = static
        coupled[size:, :size] = static.conj().T
        coupled = coupled[order[:, :, np.newaxis], order[:, np.newaxis]]
        cells = self.levels[order]
        lab = coupled + nu * cells[:, :, np.newaxis] * np.eye(size)
        energies, vectors = np.linalg.eigh(lab)
        levels = np.rint(energies / nu)
        # column j of (H_c + K - nu n_j) V, whose K - nu n_j is an exact integer times nu
        offsets = nu * (cells[:, :, np.newaxis] - levels[:, np.newaxis])
        reduced = vectors.conj().swapaxes(1, 2) @ (coupled @ vectors + offsets * vectors)
        # one stacked eigh solves every level: entries between levels are
        # dropped and level n is raised by n spacing, which keeps its
        # eigenvalues within spacing / 4 of that, so they return sorted by level
        same = levels[:, :, np.newaxis] == levels[:, np.newaxis]
        reduced = np.where(same, reduced, 0.0)
        spacing = 4.0 * float(np.max(np.sum(np.abs(reduced), axis=-1))) or 1.0
        raised, turn = np.linalg.eigh(reduced + spacing * levels[:, :, np.newaxis] * np.eye(size))
        levels = np.sort(levels, axis=1)
        shifts = raised - spacing * levels
        vectors = vectors @ turn
        return _Sectors(order, levels, shifts, vectors)


def _drive_states(
    h_ld: LambDickeHamiltonian, initial: TwoModeState, times: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``propagate_lamb_dicke``'s stacks of ``initial`` under ``h_ld`` at the
    checked 1-D ``times``: e^{iKt} V e^{-i lambda t} V^dag y0 in each sector
    (see the module docstring).  A time of 0 gives y0 itself."""
    order, levels, shifts, vectors = h_ld._sectors
    nu = h_ld.drive.nu
    reduced = np.fmod(times, 2.0 * math.pi / nu)
    y0 = np.concatenate([initial.amplitudes.ravel(), np.zeros(initial.amplitudes.size)])
    start = vectors.conj().swapaxes(1, 2) @ y0[order][..., np.newaxis]
    phases = np.multiply.outer(reduced, nu * levels) + np.multiply.outer(times, shifts)
    rotated = np.exp(-1j * phases)[..., np.newaxis] * start
    states = np.empty((len(times), len(y0)), dtype=np.complex128)
    states[:, order] = (vectors @ rotated)[..., 0] * np.exp(
        1j * np.multiply.outer(reduced, nu * h_ld.levels[order]))
    states[times == 0.0] = y0
    grids = states.reshape(len(times), 2, initial.cutoff_a + 1, initial.cutoff_b + 1)
    return grids[:, 0], grids[:, 1]


def propagate_lamb_dicke(
    initial: TwoModeState, drive: Drive, times: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(minus, plus) stacks of ``initial`` evolved exactly under the expanded
    drive Hamiltonian to each time of ``times`` (finite and non-negative, in
    any order), from one eigensystem shared by all times."""
    times = _checked_times(times, ndim=1)
    h_ld = LambDickeHamiltonian(drive, initial.cutoff_a, initial.cutoff_b)
    return _drive_states(h_ld, initial, times)


def ground_population_trajectory(
    initial: TwoModeState, drive: Drive, times: np.ndarray
) -> np.ndarray:
    """Ground-level population at each time: the squared norm of each grid of
    ``propagate_lamb_dicke``'s minus stack."""
    minus, _ = propagate_lamb_dicke(initial, drive, times)
    return _squared_norms(minus)


def _squared_norms(grids: np.ndarray) -> np.ndarray:
    """Squared norm of each grid in a (times, rows, cols) stack."""
    count, rows, cols = grids.shape
    return (np.abs(grids) ** 2).reshape(count, rows * cols).sum(axis=1)
