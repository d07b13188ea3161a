"""Independent numerical propagators used to validate the closed forms.

Two Hamiltonians are implemented over the truncated vibronic basis
|n_a, n_b> x {|->, |+>}.  Both couple only |-> to |+>, so each is held as
its coupling block W alone, with H = [[0, W], [W^dag, 0]]:

* the static pair-exchange model H = coupling * (a b sigma+ + h.c.),
  which decomposes into closed two-level blocks
  |n_a, n_b>|->  <->  |n_a - 1, n_b - 1>|+> rotating at
  coupling * sqrt(n_a n_b), evolved exactly block by block;

* the time-dependent drive Hamiltonian of two counter-phased beams along
  the diagonal mode directions, expanded to a configurable total power of
  the Lamb-Dicke parameter and integrated with a fixed-step RK4 scheme
  over one drive period.  That map's squarings advance each time by its
  whole periods, and the sweep's own prefixes by its whole steps.  One
  ``Drive`` value fixes it: omega, nu, eta_ld and the expansion order, each
  required and checked once, with the RK4 period grid they give.

The drive's minus-to-plus block is W(t) = sum_m e^{i m nu t} W_m over its
few harmonics m (seven at expansion order 3), and the drive Hamiltonian
stores the W_m once.  Each term of W is y^k^dag y^j - x^k^dag x^j in the
diagonal modes x, y.  The parity P = (-1)^{n_a} maps a to -a and so swaps x
and y: P W_m P = -W_m, so P (x) sigma_z commutes with H, and W couples a |->
state of n_a parity q only to |+> states of parity 1 - q (its other entries
are exactly 0).  RK4 steps the drive in these two parity sectors, each
ordered as its even-n_a half, then its odd half: (|-> even; |+> odd) and
(|+> even; |-> odd).  Both hold (cutoff_a + 1)(cutoff_b + 1) states, so a
state or a map is stepped as one stack over the two.  A sector's even half
couples only to its odd half, through -i H[even, odd] and -i H[odd, even].
One coupling table holds these blocks of both sectors, sliced once from the
W_m with the -i in place, one row per angular rate: m nu for an entry of W,
-m nu for an entry of W^dag.  So the blocks at any array of times are one
product of their phases with that table.  The swap P x P = y of the
diagonal modes is exact in floating point, so the entries between equal
parities are 0.0 at any order and cutoff, and every drive steps in these
two sectors.  A drive evaluates its blocks once, at the 2 steps + 1
half-step points of its period grid, and every RK4 step of the period map
reads them there; the grid is dropped with the map built, and each time's
partial step evaluates its own three points.

Both propagators map an initial |-> grid, a ``TwoModeState`` (the ion
starts in its ground level, so the |+> grid starts empty), and a 1-D array
of times to the layout of ``dynamics.evolve_closed_form``: (minus, plus)
amplitude stacks of shape (times, cutoff_a + 1, cutoff_b + 1).

The closed-form module's rate parameter g makes each |N-k, k> amplitude
oscillate at 2 g sqrt((N-k) k), so closed-form runs with rate g correspond
to the pair-exchange propagator with coupling = 2 g.  The drive expansion,
whose static part is coupling = omega * eta^2 * exp(-eta^2/2), matches the
pair-exchange propagator at that same coupling.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .states import TwoModeState, _checked_times, effective_coupling

# Fixed-step integration must resolve the fastest retained oscillation
# with at least this many steps per cycle.
STEPS_PER_CYCLE = 20


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
    kappa = coupling * np.sqrt(
        np.multiply.outer(np.arange(1.0, ca + 1.0), np.arange(1.0, cb + 1.0))
    )
    phases = np.multiply.outer(times, kappa)
    cos_t = np.cos(phases)
    sin_t = np.sin(phases)
    m_block = m_start[1:, 1:]
    minus[:, 1:, 1:] = cos_t * m_block
    plus[:, :ca, :cb] = -1j * sin_t * m_block
    return minus, plus


@dataclass(frozen=True)
class Drive:
    """Two counter-phased beams of Rabi frequency ``omega`` on a trap of
    frequency ``nu`` (both rad/s) with Lamb-Dicke parameter ``eta_ld`` in
    [0, 1), expanded to total power ``expansion_order`` >= 2 of eta.

    RK4 takes ``steps`` equal steps per ``period`` = 2 pi / nu: the fewest
    that give the fastest harmonic, (expansion_order + 2) nu (j = order,
    k = 0), STEPS_PER_CYCLE steps per cycle.  The quotient is not rounded
    first (at nu = 50 and order 3 it is 100.00000000000001, so 101 steps):
    rounding it would move the drive checks' measured values.  A bad field
    raises ValueError naming it, as does a nu whose period or step bound
    leaves the finite positive floats.
    """

    omega: float
    nu: float
    eta_ld: float
    expansion_order: int
    period: float = field(init=False, repr=False)
    steps: int = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not 0.0 <= self.omega < math.inf:
            raise ValueError(f"omega must be finite and non-negative, got {self.omega}")
        if not self.nu > 0.0:
            raise ValueError(f"nu must be positive, got {self.nu}")
        if not 0.0 <= self.eta_ld < 1.0:
            raise ValueError(f"eta_ld must lie in [0, 1), got {self.eta_ld}")
        if not self.expansion_order >= 2:
            raise ValueError("expansion_order below 2 cannot represent the pair-exchange "
                             f"process, got {self.expansion_order}")
        period = 2.0 * math.pi / self.nu
        cycle = 2.0 * math.pi / (STEPS_PER_CYCLE * ((self.expansion_order + 2) * self.nu))
        if not (period < math.inf and cycle > 0.0):
            raise ValueError(f"nu = {self.nu} leaves the drive period {period} or its step "
                             f"bound {cycle} outside the finite positive floats")
        object.__setattr__(self, "period", period)
        object.__setattr__(self, "steps", math.ceil(period / cycle))

    @property
    def coupling(self) -> float:
        """The static part's pair-exchange coupling, omega eta^2 exp(-eta^2/2)."""
        return effective_coupling(self.omega, self.eta_ld)


def _annihilation_matrix(dim: int) -> np.ndarray:
    mat = np.zeros((dim, dim))
    n = np.arange(1, dim)
    mat[n - 1, n] = np.sqrt(n)
    return mat


class _Sectors(NamedTuple):
    """The sectors a drive is stepped in, and their coupling table."""

    order: np.ndarray  # (2, size): each sector's indices into the full state vector
    even: int  # the size of each sector's even half
    rates: np.ndarray  # the table's angular rates: m nu per harmonic m, then -m nu
    table: np.ndarray  # (rates, 2, 2, even * odd): -i H[even, odd], -i H[odd, even]


class LambDickeHamiltonian:
    """Drive Hamiltonian of the two counter-phased beams, expanded in eta.

    Retains every operator product with total power j + k <= the drive's
    expansion_order of the diagonal-mode ladder operators, each oscillating
    at (k - j - 2) * nu in the rotating frame.  ``blocks[i]`` is the coupling
    block W_m of harmonic m = ``harmonics[i]``; at expansion_order = 2 the
    static block (m = 0) is ``pair_exchange_matrix`` with the drive's
    ``coupling``, the beam labeling fixed so that term enters with a plus
    sign.  ``drive`` also fixes the RK4 grid of every span stepped through it.
    """

    def __init__(self, drive: Drive, cutoff_a: int, cutoff_b: int) -> None:
        self.drive = drive
        self.cutoff_b = cutoff_b
        self.grid_size = (cutoff_a + 1) * (cutoff_b + 1)

        a_full = np.kron(_annihilation_matrix(cutoff_a + 1), np.eye(cutoff_b + 1))
        b_full = np.kron(np.eye(cutoff_a + 1), _annihilation_matrix(cutoff_b + 1))
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
                coeff = prefactor * (-1j * eta) ** (j + k) / (
                    math.factorial(j) * math.factorial(k)
                )
                op = y_pows[k].conj().T @ y_pows[j] - x_pows[k].conj().T @ x_pows[j]
                terms[harmonic] = terms.get(harmonic, 0.0) + coeff * op

        self.harmonics = np.array(sorted(terms), dtype=float)
        self.blocks = np.stack([terms[int(m)] for m in self.harmonics])

    @functools.cached_property
    def _sectors(self) -> _Sectors:
        """The two parity sectors RK4 steps and their coupling table (see the
        module docstring), read from the blocks at first use."""
        size = self.grid_size
        odd = np.arange(size) // (self.cutoff_b + 1) % 2 == 1
        evens, odds = np.flatnonzero(~odd), np.flatnonzero(odd)
        order = np.array([np.concatenate([evens, size + odds]),
                          np.concatenate([size + evens, odds])])
        # sector s couples its halves through W_m[even, odd] (s = 0) or
        # W_m[odd, even] (s = 1) one way, at the rates m nu, and through
        # that slice's conjugate transpose the other way, at -m nu
        count = len(self.harmonics)
        table = np.zeros((2 * count, 2, 2, evens.size * odds.size), dtype=np.complex128)
        for s, block in enumerate([self.blocks[:, evens][:, :, odds],
                                   self.blocks[:, odds][:, :, evens]]):
            table[:count, s, s] = (-1j * block).reshape(count, -1)
            table[count:, s, 1 - s] = (-1j * block.conj().swapaxes(1, 2)).reshape(count, -1)
        rates = self.harmonics * self.drive.nu
        return _Sectors(order, evens.size, np.concatenate([rates, -rates]), table)

    def _sector_couplings(self, t: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        """The pair (-i H[even, odd], -i H[odd, even]) of both sectors, stacked
        over ``_sectors``, at each time of the 1-D array t: the phases of the
        table's rates summed over its rows."""
        order, even, rates, table = self._sectors
        blocks = np.tensordot(np.exp(1j * np.multiply.outer(t, rates)), table, axes=1)
        odd = order.shape[1] - even
        return list(zip(blocks[:, :, 0].reshape(len(t), 2, even, odd),
                        blocks[:, :, 1].reshape(len(t), 2, odd, even)))


def _rhs(couplings: tuple[np.ndarray, np.ndarray], y: tuple[np.ndarray, np.ndarray],
         out: tuple[np.ndarray, np.ndarray]) -> None:
    # d/dt y = -i H(t) y in each sector of a stack, whose even half couples
    # only to its odd half: couplings = (-i H[even, odd], -i H[odd, even])
    # from ``_sector_couplings``, y and out the (even, odd) halves of stacks
    upper, lower = couplings
    np.matmul(upper, y[1], out=out[0])
    np.matmul(lower, y[0], out=out[1])


def _rk4_span(y: np.ndarray, h: float, grid: list[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """Advance y by (len(grid) - 1) // 2 RK4 steps of size h, step i reading
    the sector couplings at its start, midpoint and end from ``grid[2 i]``,
    ``grid[2 i + 1]`` and ``grid[2 i + 2]``.

    y is a stack over the two sectors of one state each, shape (2, size,
    1), or of one matrix each whose columns are states; both are stepped by
    the same arithmetic.
    """
    y = y.copy()
    k1, k2, k3, k4 = (np.empty_like(y) for _ in range(4))
    stage = np.empty_like(y)
    # each array's (even, odd) halves, the views every step reads and writes
    even = grid[0][0].shape[-2]
    y_, k1_, k2_, k3_, k4_, stage_ = ((a[:, :even], a[:, even:])
                                      for a in (y, k1, k2, k3, k4, stage))
    end = grid[0]  # a step's end is the next step's start
    for i in range(len(grid) // 2):
        start, mid, end = end, grid[2 * i + 1], grid[2 * i + 2]
        _rhs(start, y_, out=k1_)
        np.multiply(k1, 0.5 * h, out=stage)
        stage += y
        _rhs(mid, stage_, out=k2_)
        np.multiply(k2, 0.5 * h, out=stage)
        stage += y
        _rhs(mid, stage_, out=k3_)
        np.multiply(k3, h, out=stage)
        stage += y
        _rhs(end, stage_, out=k4_)
        k2 += k3
        k2 *= 2.0
        k1 += k4
        k1 += k2
        k1 *= h / 6.0
        y += k1
    return y


def _period_grid(h_ld: LambDickeHamiltonian, steps: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """The sector couplings at the 2 steps + 1 points j h / 2 of the period
    [0, 2 pi / nu] cut into ``steps`` RK4 steps of h, one pair per point:
    the drive's couplings, evaluated once."""
    half_step = 0.5 * h_ld.drive.period / steps
    return h_ld._sector_couplings(np.arange(2 * steps + 1) * half_step)


def one_period_map(h_ld: LambDickeHamiltonian,
                   grid: list[tuple[np.ndarray, np.ndarray]] | None = None,
                   prefixes: dict[int, np.ndarray | None] | None = None) -> np.ndarray:
    """RK4 evolution matrix over one drive period [0, 2 pi / nu] of each
    sector of ``h_ld``, a (2, size, size) stack indexed as the rows of
    ``_sectors.order``, stepped along ``grid`` (by default ``_period_grid``
    at the drive's ``steps``).

    Every harmonic of the drive is an integer multiple of nu, so this map
    M advances any state by a whole period from any multiple of the period
    (Shirley, Phys. Rev. 138, B979, 1965).  Each key d of ``prefixes`` is
    given the map of the first d steps, where a segment of the sweep ends.
    """
    if grid is None:
        grid = _period_grid(h_ld, h_ld.drive.steps)
    h = h_ld.drive.period / (len(grid) // 2)
    y, done = np.tile(np.eye(h_ld.grid_size, dtype=np.complex128), (2, 1, 1)), 0
    for stop in sorted(prefixes or ()):
        y = prefixes[stop] = _rk4_span(y, h, grid[2 * done : 2 * stop + 1])
        done = stop
    return _rk4_span(y, h, grid[2 * done :])


NORM_DRIFT_TOL = 1e-8

# Step doublings a drive may take, past its own ``steps``, before its norm
# drift raises.
REFINEMENTS = 3


def _stepped_states(
    h_ld: LambDickeHamiltonian, y0: np.ndarray, times: np.ndarray, steps: int
) -> tuple[np.ndarray, np.ndarray]:
    """The state U(r) M^n y0 at each t = n T + r of ``times``, one row per
    time, and the stack of M's sector maps, all at ``steps`` RK4 steps per
    period T.  M^n is M^(2^k) per set bit k of n; U(r) is the prefix of the
    sweep that built M at the whole steps below r, then one partial step to
    r.  Each is applied to y0's sectors as one stack.  No time's bits depend
    on the other times: the matrices applied are shared by all."""
    period = h_ld.drive.period
    h = period / steps
    splits = [(int(n), r, min(int(r / h), steps))
              for n, r in (divmod(float(t), period) for t in times)]
    prefixes = dict.fromkeys(done for *_, done in splits)
    period_map = one_period_map(h_ld, _period_grid(h_ld, steps), prefixes)
    powers = [period_map]  # M^(2^k), up to the largest n
    while 1 << len(powers) <= max(whole for whole, *_ in splits):
        powers.append(powers[-1] @ powers[-1])
    order = h_ld._sectors.order
    start = y0[order][..., np.newaxis]
    states = np.empty((len(times), len(y0)), dtype=np.complex128)
    for i, (whole, rest, done) in enumerate(splits):
        y = start
        for power in (power for bit, power in enumerate(powers) if whole >> bit & 1):
            y = power @ y
        y = prefixes[done] @ y
        partial = rest - done * h
        if partial > 0.0:
            grid = h_ld._sector_couplings(done * h + np.array([0.0, 0.5, 1.0]) * partial)
            y = _rk4_span(y, partial, grid)
        states[i, order] = y[..., 0]
    return states, period_map


def _drive_states(
    initial: TwoModeState, drive: Drive, times: np.ndarray
) -> tuple[np.ndarray, np.ndarray, float]:
    """``propagate_lamb_dicke``'s stacks at non-empty ``times``, and the
    unitarity defect max|M_s^dag M_s - I| of the one-period map's sector
    maps M_s.  Each state is U(r) M^n y0 from the initial vector y0
    alone (the |-> grid, then the empty |+> grid, each row-major over
    (n_a, n_b), the order of the coupling blocks' rows and columns); all
    times share one build of the drive Hamiltonian.  Where the norm drifts
    by more than NORM_DRIFT_TOL at some time, every time is redone at twice
    the steps, up to REFINEMENTS doublings, and only then does it raise."""
    h_ld = LambDickeHamiltonian(drive, initial.cutoff_a, initial.cutoff_b)
    y0 = np.concatenate([initial.amplitudes.ravel(), np.zeros(initial.amplitudes.size)])
    for doubling in range(REFINEMENTS + 1):
        states, maps = _stepped_states(h_ld, y0, times, drive.steps << doubling)
        drift = np.max(np.abs(np.sum(np.abs(states) ** 2, axis=1) - initial.squared_norm()))
        if drift <= NORM_DRIFT_TOL:
            grids = states.reshape(len(times), 2, initial.cutoff_a + 1, initial.cutoff_b + 1)
            defect = np.max(np.abs(maps.conj().swapaxes(1, 2) @ maps - np.eye(maps.shape[1])))
            return grids[:, 0], grids[:, 1], float(defect)
    raise RuntimeError(f"norm drift {drift:.3e} exceeds {NORM_DRIFT_TOL}")


def propagate_lamb_dicke(
    initial: TwoModeState, drive: Drive, times: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(minus, plus) stacks of ``initial`` integrated with RK4 under the
    expanded drive Hamiltonian to each time of ``times`` (finite and
    non-negative, in any order).

    The drive repeats with period T = 2 pi / nu, so the state at
    t = n T + r is U(r) M^n applied to ``initial``: M is the RK4 map over
    one period, applied through its squarings M, M^2, M^4, ..., and U(r)
    the map of the sweep's first int(r / h) steps, kept as that sweep built
    M, then one partial step to r.  The step h = T / ceil(T / dt)
    with dt = 2 pi / (20 nu max|k - j - 2|), the drive's ``period``
    over its ``steps``, so it divides T.  Norm drift beyond 1e-8 at any time
    redoes the drive at 2, 4 and 8 times the steps, and raises if it stays.
    """
    times = _checked_times(times, ndim=1)
    if times.size == 0:  # no drive to build
        return tuple(np.zeros((2, 0, initial.cutoff_a + 1, initial.cutoff_b + 1), complex))
    return _drive_states(initial, drive, times)[:2]


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
