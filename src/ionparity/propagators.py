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
  over one drive period, whose evolution map is then raised to the number
  of whole periods elapsed, for each time on its own.

The drive's minus-to-plus block is W(t) = sum_m e^{i m nu t} W_m over its
few harmonics m (seven at expansion order 3).  The drive Hamiltonian stores
the W_m once, and reads them as a coupling table, one flattened row per
harmonic, beside the angular rates m nu, so each RK4 stage time costs one
vector-matrix product of the phases with that table, plus the conjugate
transpose for W(t)^dag.

Both propagators map an initial ``VibronicState`` and a 1-D array of times
to the layout of ``dynamics.evolve_closed_form``: (minus, plus) amplitude
stacks of shape (times, cutoff_a + 1, cutoff_b + 1).

The closed-form module's rate parameter g makes each |N-k, k> amplitude
oscillate at 2 g sqrt((N-k) k), so closed-form runs with rate g correspond
to the pair-exchange propagator with coupling = 2 g.  The drive expansion,
whose static part is coupling = omega * eta^2 * exp(-eta^2/2), matches the
pair-exchange propagator at that same coupling.
"""

from __future__ import annotations

import math
import numpy as np

from .states import PhysicalParams, VibronicState, _checked_times

# Maximum tolerated population on plus-component cells whose coupling
# partner would fall outside the grid.
EDGE_POPULATION_TOL = 1e-12

# Fixed-step integration must resolve the fastest retained oscillation
# with at least this many steps per cycle.
STEPS_PER_CYCLE = 20


class TruncationError(RuntimeError):
    """Raised when population sits on cells whose dynamics needs a larger grid."""


def pair_exchange_matrix(coupling: float, cutoff_a: int, cutoff_b: int) -> np.ndarray:
    """Coupling block W of coupling * (a b sigma+ + a^dag b^dag sigma-): its
    only elements couple |n_a, n_b>|-> to |n_a - 1, n_b - 1>|+> at
    coupling * sqrt(n_a n_b)."""
    if coupling <= 0.0:
        raise ValueError("coupling must be positive")
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
    initial: VibronicState, coupling: float, times: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(minus, plus) stacks of ``initial`` evolved under the pair-exchange
    Hamiltonian to each time of ``times`` (finite and non-negative).

    Every two-level block is rotated exactly, at all times in one broadcast,
    so the result carries no step-size error.  Raises TruncationError when
    plus-component population sits on the grid edge where its coupling
    partner is not representable.
    """
    if coupling <= 0.0:
        raise ValueError("coupling must be positive")
    times = _checked_times(times, ndim=1)
    m_start = initial.minus_component.amplitudes
    p_start = initial.plus_component.amplitudes
    ca, cb = initial.cutoff_a, initial.cutoff_b

    edge_population = float(np.sum(np.abs(p_start[-1, :]) ** 2))
    if ca > 0:
        edge_population += float(np.sum(np.abs(p_start[:-1, -1]) ** 2))
    if edge_population > EDGE_POPULATION_TOL:
        raise TruncationError(
            f"plus-component population {edge_population:.3e} on the cutoff "
            f"boundary exceeds {EDGE_POPULATION_TOL}; enlarge the grid"
        )
    minus = np.repeat(m_start[np.newaxis], len(times), axis=0)
    plus = np.repeat(p_start[np.newaxis], len(times), axis=0)
    kappa = coupling * np.sqrt(
        np.multiply.outer(np.arange(1.0, ca + 1.0), np.arange(1.0, cb + 1.0))
    )
    phases = np.multiply.outer(times, kappa)
    cos_t = np.cos(phases)
    sin_t = np.sin(phases)
    m_block = m_start[1:, 1:]
    p_block = p_start[:ca, :cb]
    minus[:, 1:, 1:] = cos_t * m_block - 1j * sin_t * p_block
    plus[:, :ca, :cb] = cos_t * p_block - 1j * sin_t * m_block
    return minus, plus


def _period_grid(nu: float, expansion_order: int) -> tuple[float, int]:
    """Drive period 2 pi / nu and its RK4 step count: the fewest steps that give
    the fastest harmonic, (expansion_order + 2) nu (j = order, k = 0),
    STEPS_PER_CYCLE steps per cycle.  The quotient is not rounded first (at
    nu = 50 and order 3 it is 100.00000000000001, so 101 steps): rounding it
    would move the drive checks' measured values.  Raises ValueError where the
    period or the step bound leaves the finite positive floats."""
    period = 2.0 * math.pi / nu
    cycle = 2.0 * math.pi / (STEPS_PER_CYCLE * ((expansion_order + 2) * nu))
    if not (period < math.inf and cycle > 0.0):
        raise ValueError(f"nu = {nu} leaves the drive period {period} or its step "
                         f"bound {cycle} outside the finite positive floats")
    return period, math.ceil(period / cycle)


def _annihilation_matrix(dim: int) -> np.ndarray:
    mat = np.zeros((dim, dim))
    n = np.arange(1, dim)
    mat[n - 1, n] = np.sqrt(n)
    return mat


class LambDickeHamiltonian:
    """Drive Hamiltonian of the two counter-phased beams, expanded in eta.

    Retains every operator product with total power j + k <= expansion_order
    of the diagonal-mode ladder operators, each oscillating at
    (k - j - 2) * nu in the rotating frame.  ``blocks[i]`` is the coupling
    block W_m of harmonic m = ``harmonics[i]``; at expansion_order = 2 the
    static block (m = 0) is ``pair_exchange_matrix`` with coupling
    omega * eta^2 * exp(-eta^2/2), the beam labeling fixed so that term
    enters with a plus sign.

    RK4 takes ``steps`` equal steps per ``period`` = 2 pi / nu (see
    ``_period_grid``).
    """

    def __init__(
        self, params: PhysicalParams, expansion_order: int, cutoff_a: int, cutoff_b: int
    ) -> None:
        if params.omega is None or params.nu is None or params.eta_ld is None:
            raise ValueError("params must provide omega, nu and eta_ld")
        if not params.eta_ld < 1.0:
            raise ValueError(f"eta_ld must be below 1, got {params.eta_ld}")
        if expansion_order < 2:
            raise ValueError(
                "expansion_order below 2 cannot represent the pair-exchange process"
            )
        self.period, self.steps = _period_grid(params.nu, expansion_order)
        self.grid_size = (cutoff_a + 1) * (cutoff_b + 1)

        a_full = np.kron(_annihilation_matrix(cutoff_a + 1), np.eye(cutoff_b + 1))
        b_full = np.kron(np.eye(cutoff_a + 1), _annihilation_matrix(cutoff_b + 1))
        mode_x = (a_full + b_full) / math.sqrt(2.0)
        mode_y = (b_full - a_full) / math.sqrt(2.0)

        order = expansion_order
        # lowering powers v^j of each diagonal mode; a raising power is (v^k)^dag
        x_pows = [np.linalg.matrix_power(mode_x, power) for power in range(order + 1)]
        y_pows = [np.linalg.matrix_power(mode_y, power) for power in range(order + 1)]

        eta = params.eta_ld
        prefactor = params.omega * math.exp(-(eta**2) / 2.0)
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
        # the coupling table (see the module docstring), a view of the blocks
        self._rates = self.harmonics * params.nu
        self._flat_blocks = self.blocks.reshape(len(self.harmonics), -1)

    def _couplings(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        # W(t) = sum_m e^{i m nu t} W_m, the minus-to-plus block of H(t), and W(t)^dag
        phases = np.exp(1j * self._rates * t)
        coupling_block = (phases @ self._flat_blocks).reshape(self.grid_size, self.grid_size)
        return coupling_block, coupling_block.conj().T

    @staticmethod
    def _rhs(
        couplings: tuple[np.ndarray, np.ndarray], y: np.ndarray, out: np.ndarray
    ) -> np.ndarray:
        # d/dt [minus; plus] = -i H(t) [minus; plus] with the block structure
        # H = [[0, W(t)], [W(t)^dag, 0]] and couplings = (W(t), W(t)^dag);
        # y is one state or a matrix of states.
        coupling_block, coupling_dag = couplings
        dim = len(coupling_block)
        np.matmul(coupling_block, y[dim:], out=out[:dim])
        np.matmul(coupling_dag, y[:dim], out=out[dim:])
        out *= -1j
        return out


def _rk4_span(
    h_ld: LambDickeHamiltonian, y: np.ndarray, t0: float, t1: float, steps: int
) -> np.ndarray:
    """Advance y from t0 to t1 in ``steps`` equal RK4 steps.

    y is one flattened state or a matrix whose columns are states; both are
    stepped by the same arithmetic.
    """
    y = y.copy()
    if steps == 0:
        return y
    h = (t1 - t0) / steps
    k1, k2, k3, k4 = (np.empty_like(y) for _ in range(4))
    stage = np.empty_like(y)
    # k2 and k3 share the midpoint coupling; a step's end coupling is reused
    # as the next step's start wherever t + h rounds to the same time.
    end_time, end = math.nan, None
    for i in range(steps):
        t = t0 + i * h
        start = end if t == end_time else h_ld._couplings(t)
        mid = h_ld._couplings(t + 0.5 * h)
        end_time = t + h
        end = h_ld._couplings(end_time)
        h_ld._rhs(start, y, out=k1)
        np.multiply(k1, 0.5 * h, out=stage)
        stage += y
        h_ld._rhs(mid, stage, out=k2)
        np.multiply(k2, 0.5 * h, out=stage)
        stage += y
        h_ld._rhs(mid, stage, out=k3)
        np.multiply(k3, h, out=stage)
        stage += y
        h_ld._rhs(end, stage, out=k4)
        k2 += k3
        k2 *= 2.0
        k1 += k4
        k1 += k2
        k1 *= h / 6.0
        y += k1
    return y


def one_period_map(h_ld: LambDickeHamiltonian) -> np.ndarray:
    """RK4 evolution matrix over one drive period [0, 2 pi / nu].

    Every harmonic of the drive is an integer multiple of nu, so this map
    M advances any state by a whole period from any multiple of the period
    (Shirley, Phys. Rev. 138, B979, 1965).
    """
    identity = np.eye(2 * h_ld.grid_size, dtype=np.complex128)
    return _rk4_span(h_ld, identity, 0.0, h_ld.period, h_ld.steps)


NORM_DRIFT_TOL = 1e-8


def _drive_states(
    initial: VibronicState,
    params: PhysicalParams,
    expansion_order: int,
    times: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``propagate_lamb_dicke``'s stacks at non-empty ``times``, and the
    one-period map M.  Each state is U(r) M^n y0 from the initial vector y0
    alone (the |-> grid, then the |+> grid, each row-major over (n_a, n_b),
    the order of the coupling blocks' rows and columns); all times share one
    build of the drive Hamiltonian and of M."""
    h_ld = LambDickeHamiltonian(params, expansion_order, initial.cutoff_a, initial.cutoff_b)
    period, steps = h_ld.period, h_ld.steps
    period_map = one_period_map(h_ld)
    y0 = np.concatenate(
        [initial.minus_component.amplitudes.ravel(), initial.plus_component.amplitudes.ravel()]
    )
    states = np.empty((len(times), len(y0)), dtype=np.complex128)
    for i, t in enumerate(times):
        whole, rest = divmod(float(t), period)
        y = np.linalg.matrix_power(period_map, int(whole)) @ y0
        states[i] = _rk4_span(h_ld, y, 0.0, rest, math.ceil(rest * steps / period))
    drift = np.max(np.abs(np.sum(np.abs(states) ** 2, axis=1) - initial.total_squared_norm()))
    if drift > NORM_DRIFT_TOL:
        raise RuntimeError(f"norm drift {drift:.3e} exceeds {NORM_DRIFT_TOL}")
    grids = states.reshape(len(times), 2, initial.cutoff_a + 1, initial.cutoff_b + 1)
    return grids[:, 0], grids[:, 1], period_map


def propagate_lamb_dicke(
    initial: VibronicState,
    params: PhysicalParams,
    expansion_order: int,
    times: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """(minus, plus) stacks of ``initial`` integrated with RK4 under the
    expanded drive Hamiltonian to each time of ``times`` (finite and
    non-negative, in any order).

    The drive repeats with period T = 2 pi / nu, so the state at
    t = n T + r is U(r) M^n applied to ``initial``: M is the RK4 map over
    one period, raised to the n-th power by ``np.linalg.matrix_power``, and
    U(r) the remainder integrated from phase 0.  The step is T / ceil(T / dt)
    with dt = 2 pi / (20 nu max|k - j - 2|), the Hamiltonian's ``period``
    over its ``steps``, so it divides T.  Norm drift beyond 1e-8 at any time
    raises.
    """
    times = _checked_times(times, ndim=1)
    if times.size == 0:  # no drive to build
        return tuple(np.zeros((2, 0, initial.cutoff_a + 1, initial.cutoff_b + 1), complex))
    return _drive_states(initial, params, expansion_order, times)[:2]


def ground_population_trajectory(
    initial: VibronicState,
    params: PhysicalParams,
    expansion_order: int,
    times: np.ndarray,
) -> np.ndarray:
    """Ground-level population at each time: the squared norm of each grid of
    ``propagate_lamb_dicke``'s minus stack."""
    minus, _ = propagate_lamb_dicke(initial, params, expansion_order, times)
    return _squared_norms(minus)


def _squared_norms(grids: np.ndarray) -> np.ndarray:
    """Squared norm of each grid in a (times, rows, cols) stack."""
    count, rows, cols = grids.shape
    return (np.abs(grids) ** 2).reshape(count, rows * cols).sum(axis=1)
