import math

import numpy as np
import pytest

from ionparity import (
    Drive,
    LambDickeHamiltonian,
    TwoModeState,
    evolve_closed_form,
    ground_population_trajectory,
    ground_probability,
    pair_exchange_matrix,
    propagate_effective,
    propagate_lamb_dicke,
    symmetric_binomial_amplitudes,
    vibrational_entropy,
)
from ionparity import checks, propagators
from ionparity.propagators import _period_grid, _rk4_span, _squared_norms, one_period_map


# the drive of the validate battery's unitarity row
_DRIVE = Drive(omega=1.0, nu=50.0, eta_ld=0.05, expansion_order=3)


def _fock_state(n_a: int, n_b: int, cutoff_a: int, cutoff_b: int) -> TwoModeState:
    """The |-> grid of |n_a, n_b>|->."""
    grid = np.zeros((cutoff_a + 1, cutoff_b + 1), dtype=np.complex128)
    grid[n_a, n_b] = 1.0
    return TwoModeState(grid)


def _initial_binomial(n_total: int, cutoff: int) -> TwoModeState:
    k = np.arange(n_total + 1)
    grid = np.zeros((cutoff + 1, cutoff + 1), dtype=np.complex128)
    grid[n_total - k, k] = symmetric_binomial_amplitudes(n_total)
    return TwoModeState(grid)


def _random_state(rng, cutoff_a: int, cutoff_b: int) -> TwoModeState:
    """A normalized |-> grid of random complex amplitudes on every cell."""
    shape = (cutoff_a + 1, cutoff_b + 1)
    minus = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return TwoModeState(minus / np.sqrt(np.sum(np.abs(minus) ** 2)))


def _vector(state: TwoModeState) -> np.ndarray:
    """The drive's state vector: the |-> grid, then the empty |+> grid, each row-major."""
    return np.concatenate([state.amplitudes.ravel(), np.zeros(state.amplitudes.size)])


def _grid_labels(cutoff_a: int, cutoff_b: int) -> list[tuple[int, int]]:
    """The documented order of each half of a flattened state, and so of the
    rows (|->) and columns (|+>) of a coupling block: row-major over (n_a, n_b)."""
    return [(na, nb) for na in range(cutoff_a + 1) for nb in range(cutoff_b + 1)]


def _full_hamiltonian(h: LambDickeHamiltonian, t: np.ndarray) -> np.ndarray:
    """H(t) = [[0, W(t)], [W(t)^dag, 0]] over the full state vector at each
    time of t, with W(t) = sum_m e^{i m nu t} W_m summed from the blocks."""
    phases = np.exp(1j * np.multiply.outer(t, h.harmonics * h.drive.nu))
    couplings = np.einsum("tm,mij->tij", phases, h.blocks)
    zeros = np.zeros_like(couplings)
    return np.block([[zeros, couplings], [couplings.conj().swapaxes(1, 2), zeros]])


def _rk4_reference(y, h_ld, t0, h, steps):
    """The unsplit route: classic RK4 over the full state vector, ``steps``
    steps of h from t0, with H formed afresh for each of the four stages."""
    y = y.copy()
    for i in range(steps):
        start, mid, end = _full_hamiltonian(h_ld, t0 + np.array([i, i + 0.5, i + 1.0]) * h)
        k1 = -1j * (start @ y)
        k2 = -1j * (mid @ (y + 0.5 * h * k1))
        k3 = -1j * (mid @ (y + 0.5 * h * k2))
        k4 = -1j * (end @ (y + h * k3))
        y = y + (h / 6.0) * ((k1 + k4) + 2.0 * (k2 + k3))
    return y


def _assert_pair_exchange_block(block, coupling, cutoff_a, cutoff_b, atol):
    # only |n_a, n_b>|-> and |n_a - 1, n_b - 1>|+> are coupled, at coupling sqrt(n_a n_b)
    labels = _grid_labels(cutoff_a, cutoff_b)
    assert block.shape == (len(labels), len(labels))
    for i, (na_i, nb_i) in enumerate(labels):
        for j, (na_j, nb_j) in enumerate(labels):
            if (na_j, nb_j) == (na_i - 1, nb_i - 1):
                assert block[i, j] == pytest.approx(coupling * np.sqrt(na_i * nb_i), abs=atol)
            else:
                assert abs(block[i, j]) <= atol


@pytest.mark.parametrize("cutoff_a, cutoff_b", [(3, 3), (2, 4), (4, 1)])
def test_pair_exchange_matrix_structure(cutoff_a, cutoff_b):
    block = pair_exchange_matrix(1.3, cutoff_a, cutoff_b)
    _assert_pair_exchange_block(block, 1.3, cutoff_a, cutoff_b, atol=0.0)


@pytest.mark.parametrize("cutoff_a, cutoff_b", [(2, 2), (2, 4)])
def test_routes_return_minus_plus_stacks_over_the_times(cutoff_a, cutoff_b):
    state = _fock_state(1, 1, cutoff_a, cutoff_b)
    times = np.array([0.0, 0.5, 1.5])
    shape = (3, cutoff_a + 1, cutoff_b + 1)
    for minus, plus in (
        propagate_effective(state, 1.0, times),
        propagate_lamb_dicke(state, _DRIVE, times),
    ):
        assert minus.shape == plus.shape == shape
        assert minus.dtype == plus.dtype == np.complex128
        # t = 0 returns the initial state itself, with an empty |+> grid
        assert np.array_equal(minus[0], state.amplitudes)
        assert not plus[0].any()
    for minus, plus in (
        propagate_effective(state, 1.0, np.array([])),
        propagate_lamb_dicke(state, _DRIVE, np.array([])),
    ):
        assert minus.shape == plus.shape == (0, cutoff_a + 1, cutoff_b + 1)
    assert ground_population_trajectory(state, _DRIVE, np.array([])).shape == (0,)


def test_full_exchange_flop():
    initial = _fock_state(1, 1, 2, 2)
    (minus,), (plus,) = propagate_effective(initial, 1.0, np.array([np.pi / 2.0]))
    # |1,1>|-> flops to |0,0>|+> with phase -i after a quarter rotation period
    assert plus[0, 0] == pytest.approx(-1j, abs=1e-12)
    assert abs(minus[1, 1]) <= 1e-12


def test_single_mode_occupation_is_stationary():
    for n in (3, 6):
        initial = _fock_state(n, 0, 6, 6)
        minus, plus = propagate_effective(initial, 2.0, np.array([1.234, 7.0]))
        for grid in minus:
            assert np.allclose(grid, initial.amplitudes, atol=1e-15)
        assert not plus.any()


def test_propagator_matches_closed_form():
    # closed-form rate g corresponds to propagator coupling 2 g
    rng = np.random.default_rng(2)
    g = 1.0
    for n in range(1, 7):
        initial = _initial_binomial(n, n)
        times = rng.uniform(0.0, 10.0, size=10)
        minus, plus = evolve_closed_form(n, g, times)
        evolved_minus, evolved_plus = propagate_effective(initial, 2.0 * g, times)
        assert np.allclose(evolved_minus, minus, atol=1e-12)
        assert np.allclose(evolved_plus, plus, atol=1e-12)
        probabilities = ground_probability(n, g, times)
        assert np.max(np.abs(_squared_norms(evolved_minus) - probabilities)) <= 1e-12


def test_propagator_matches_dense_matrix_exponential():
    # a non-square grid, so the rectangular cutoffs of the blocks are covered
    rng = np.random.default_rng(8)
    cutoff_a, cutoff_b = 4, 2
    state = _random_state(rng, cutoff_a, cutoff_b)
    coupling, times = 0.9, np.array([1.7, 0.4, 6.1])
    minus, plus = propagate_effective(state, coupling, times)

    block = pair_exchange_matrix(coupling, cutoff_a, cutoff_b)
    h = np.block([[np.zeros_like(block), block], [block.conj().T, np.zeros_like(block)]])
    evals, evecs = np.linalg.eigh(h)
    y0 = _vector(state)
    dim = (cutoff_a + 1) * (cutoff_b + 1)
    for t, evolved_minus, evolved_plus in zip(times, minus, plus):
        y1 = evecs @ (np.exp(-1j * evals * t) * (evecs.conj().T @ y0))
        assert np.allclose(evolved_minus.ravel(), y1[:dim], atol=1e-12)
        assert np.allclose(evolved_plus.ravel(), y1[dim:], atol=1e-12)


def test_propagator_conserves_norm_and_sectors():
    rng = np.random.default_rng(4)
    state = _random_state(rng, 5, 5)

    def sector_populations(minus: np.ndarray, plus: np.ndarray) -> dict:
        pops: dict[int, float] = {}
        for (na, nb), amp in np.ndenumerate(minus):
            pops[na + nb] = pops.get(na + nb, 0.0) + abs(amp) ** 2
        for (na, nb), amp in np.ndenumerate(plus):
            pops[na + nb + 2] = pops.get(na + nb + 2, 0.0) + abs(amp) ** 2
        return pops

    before = sector_populations(state.amplitudes, np.zeros_like(state.amplitudes))
    for minus, plus in zip(*propagate_effective(state, 1.1, np.array([3.3, 0.8]))):
        after = sector_populations(minus, plus)
        assert abs(sum(after.values()) - 1.0) <= 1e-12
        for sector, population in before.items():
            assert after.get(sector, 0.0) == pytest.approx(population, abs=1e-12)


@pytest.mark.parametrize("coupling", [math.nan, math.inf, 0.0, -1.0])
def test_pair_exchange_layer_rejects_a_coupling_that_is_not_finite_and_positive(coupling):
    message = f"^coupling must be finite and positive, got {coupling}$"
    with pytest.raises(ValueError, match=message):
        pair_exchange_matrix(coupling, 2, 2)
    with pytest.raises(ValueError, match=message):
        propagate_effective(_initial_binomial(2, 3), coupling, np.array([0.5]))


# every evolution route, called at the times t
_ROUTES = {
    "evolve_closed_form": lambda t: evolve_closed_form(3, 1.0, np.array([0.5, t])),
    "ground_probability": lambda t: ground_probability(3, 1.0, t),
    "vibrational_entropy": lambda t: vibrational_entropy(3, 1.0, t),
    "propagate_effective": lambda t: propagate_effective(
        _initial_binomial(2, 3), 1.0, np.array([0.5, t])),
    "propagate_lamb_dicke": lambda t: propagate_lamb_dicke(
        _initial_binomial(2, 3), _DRIVE, np.array([0.0, t])),
}


@pytest.mark.parametrize("route", sorted(_ROUTES))
@pytest.mark.parametrize("t", [math.nan, math.inf, -1.0])
def test_every_route_rejects_a_time_that_is_not_finite_and_non_negative(route, t):
    with pytest.raises(ValueError, match="^t must be finite and non-negative$"):
        _ROUTES[route](t)


# every route that returns (minus, plus) stacks, called at the times t
_STACK_ROUTES = {
    "evolve_closed_form": lambda t: evolve_closed_form(3, 1.0, t),
    "propagate_effective": lambda t: propagate_effective(_initial_binomial(2, 3), 1.0, t),
    "propagate_lamb_dicke": lambda t: propagate_lamb_dicke(_initial_binomial(2, 3), _DRIVE, t),
    "ground_population_trajectory": lambda t: ground_population_trajectory(
        _initial_binomial(2, 3), _DRIVE, t),
}


@pytest.mark.parametrize("route", sorted(_STACK_ROUTES))
@pytest.mark.parametrize("t", [0.5, np.array(0.5), np.array([[0.5, 1.0]])])
def test_stack_routes_reject_times_that_are_not_1d(route, t):
    with pytest.raises(ValueError, match="^times must be a 1-D array, got shape"):
        _STACK_ROUTES[route](t)


def test_drive_validation():
    with pytest.raises(ValueError, match="expansion_order"):
        Drive(omega=1.0, nu=50.0, eta_ld=0.05, expansion_order=1)
    with pytest.raises(ValueError, match="eta_ld"):
        Drive(omega=1.0, nu=50.0, eta_ld=1.2, expansion_order=2)
    with pytest.raises(ValueError, match="omega"):
        Drive(omega=-1.0, nu=50.0, eta_ld=0.05, expansion_order=2)
    with pytest.raises(ValueError, match="t must be finite"):
        propagate_lamb_dicke(_initial_binomial(2, 3), _DRIVE, np.array([math.inf]))


def test_drive_static_block_follows_the_documented_basis_order():
    # on a non-square grid the static order-2 block couples only
    # |n_a, n_b>|-> and |n_a - 1, n_b - 1>|+>, at the labelled positions
    drive = Drive(omega=1.0, nu=70.0, eta_ld=0.05, expansion_order=2)
    h = LambDickeHamiltonian(drive, 2, 3)
    assert np.array_equal(h.harmonics, np.arange(-4.0, 1.0))
    _assert_pair_exchange_block(h.blocks[-1], drive.coupling, 2, 3, atol=1e-15)
    # the drive lays its states out in the same order: |2, 1>|-> flattened
    # row-major and carried through the unsplit route's period map gives the
    # same state, whose sector restrictions are the drive's sector maps
    state = _fock_state(2, 1, 2, 3)
    (minus,), (plus,) = propagate_lamb_dicke(state, drive, np.array([drive.period]))
    full = _rk4_reference(np.eye(2 * h.grid_size, dtype=np.complex128), h, 0.0,
                          drive.period / drive.steps, drive.steps)
    _assert_sector_maps_restrict(one_period_map(h), full, h._sectors.order)
    stepped = full @ _vector(state)
    assert not np.array_equal(stepped, _vector(state))
    assert np.max(np.abs(np.concatenate([minus.ravel(), plus.ravel()]) - stepped)) <= 1e-15


def test_drive_couplings_are_the_phased_sum_of_the_harmonic_blocks():
    # each sector's blocks are -i H(t) between its even and odd halves, with
    # W(t) = sum_m e^{i m nu t} W_m summed here term by term from the blocks
    h = LambDickeHamiltonian(_DRIVE, 2, 3)
    dim = h.grid_size
    assert np.array_equal(h.harmonics, np.arange(-5.0, 2.0))
    assert h.blocks.shape == (7, dim, dim)
    order = h._sectors.order
    even = 8  # n_a = 0 and 2, four cells each
    assert order.shape == (2, dim)
    times = np.array([0.0, 0.123, 0.77, 29.9])
    for t, (upper, lower) in zip(times, h._sector_couplings(times), strict=True):
        expected = np.zeros((dim, dim), dtype=np.complex128)
        for m, block in zip(h.harmonics, h.blocks):
            expected += np.exp(1j * m * _DRIVE.nu * t) * block
        full = np.block([[np.zeros_like(expected), expected],
                         [expected.conj().T, np.zeros_like(expected)]])
        assert upper.shape == (2, even, dim - even) and lower.shape == (2, dim - even, even)
        for s, row in enumerate(order):
            assert np.max(np.abs(upper[s] + 1j * full[np.ix_(row[:even], row[even:])])) <= 1e-15
            assert np.max(np.abs(lower[s] + 1j * full[np.ix_(row[even:], row[:even])])) <= 1e-15
    # a drive's grid holds them at the 2 steps + 1 half steps of its period
    grid = _period_grid(h, 7)
    assert len(grid) == 15
    half_step = _DRIVE.period / 14
    for j in (0, 1, 7, 14):
        ((upper, lower),) = h._sector_couplings(np.array([j * half_step]))
        assert np.array_equal(grid[j][0], upper) and np.array_equal(grid[j][1], lower)


@pytest.mark.parametrize("expansion_order", [2, 3, 4, 5, 6, 7])
@pytest.mark.parametrize("cutoff_a, cutoff_b",
                         [(2, 2), (3, 3), (4, 4), (5, 5), (6, 6), (2, 5), (6, 3), (4, 2)])
def test_every_block_couples_only_opposite_n_a_parities(expansion_order, cutoff_a, cutoff_b):
    # a -> -a swaps the diagonal modes, so P W_m P = -W_m for P = (-1)^{n_a}:
    # every entry between a |-> and a |+> state of equal n_a parity is 0.0,
    # which is all that lets every drive step in the two parity sectors
    drive = Drive(omega=1.3, nu=40.0, eta_ld=0.3, expansion_order=expansion_order)
    h = LambDickeHamiltonian(drive, cutoff_a, cutoff_b)
    labels = _grid_labels(cutoff_a, cutoff_b)
    parity = np.array([na % 2 for na, _ in labels])
    equal = parity[:, np.newaxis] == parity
    assert not np.any(h.blocks[:, equal])
    assert np.any(h.blocks[:, ~equal])
    # so the drive steps two sectors, each of every n_a parity's cells once
    order = h._sectors.order
    assert order.shape == (2, len(labels))
    assert sorted(np.concatenate(order).tolist()) == list(range(2 * len(labels)))


def test_drive_static_part_equals_pair_exchange():
    drive = Drive(omega=1.0, nu=70.0, eta_ld=0.05, expansion_order=2)
    h = LambDickeHamiltonian(drive, 4, 4)
    pair = pair_exchange_matrix(drive.coupling, 4, 4)
    (static,) = h.blocks[h.harmonics == 0.0]
    assert np.allclose(static, pair, atol=1e-15)


def test_drive_off_is_identity():
    drive = Drive(omega=0.0, nu=50.0, eta_ld=0.05, expansion_order=3)
    state = _initial_binomial(2, 4)
    (minus,), (plus,) = propagate_lamb_dicke(state, drive, np.array([5.0]))
    assert np.allclose(minus, state.amplitudes, atol=1e-12)
    assert np.sum(np.abs(plus) ** 2) <= 1e-24


def test_zero_lamb_dicke_parameter_is_trivial():
    # the two beams cancel order by order when eta = 0
    drive = Drive(omega=1.0, nu=50.0, eta_ld=0.0, expansion_order=2)
    state = _initial_binomial(2, 4)
    (minus,), _ = propagate_lamb_dicke(state, drive, np.array([5.0]))
    assert np.allclose(minus, state.amplitudes, atol=1e-12)


def test_drive_tracks_pair_exchange_model():
    g_eff = _DRIVE.coupling
    state = _initial_binomial(2, 4)
    times = np.linspace(0.0, 0.1 / g_eff, 5)[1:]
    driven = ground_population_trajectory(state, _DRIVE, times)
    reference = _squared_norms(propagate_effective(state, g_eff, times)[0])
    assert np.max(np.abs(driven - reference)) < 5e-4


def test_trajectory_consistent_with_single_run():
    state = _initial_binomial(2, 4)
    times = np.array([3.0, 7.0, 12.0])
    traj = ground_population_trajectory(state, _DRIVE, times)
    minus, plus = propagate_lamb_dicke(state, _DRIVE, times[-1:])
    assert abs(traj[-1] - _squared_norms(minus)[0]) <= 1e-9
    assert abs(_squared_norms(minus)[0] + _squared_norms(plus)[0] - 1.0) <= 1e-8


def test_each_drive_call_builds_one_hamiltonian_and_one_period_map(monkeypatch):
    state = _initial_binomial(2, 3)
    builds, maps = [], []
    build, build_map = LambDickeHamiltonian.__init__, one_period_map

    def counted(self, *args, **kwargs):
        builds.append(args)
        build(self, *args, **kwargs)

    def counted_map(h_ld, grid=None, prefixes=None):
        maps.append(h_ld)
        return build_map(h_ld, grid, prefixes)

    monkeypatch.setattr(LambDickeHamiltonian, "__init__", counted)
    monkeypatch.setattr(propagators, "one_period_map", counted_map)
    propagate_lamb_dicke(state, _DRIVE, np.array([1.0]))
    assert (len(builds), len(maps)) == (1, 1)
    # three times of 1, 3 and 7 whole periods share the one map
    ground_population_trajectory(state, _DRIVE, np.array([0.2, 0.5, 1.0]))
    assert (len(builds), len(maps)) == (2, 2)
    # times within the first period build it too, and raise it to the power 0
    propagate_lamb_dicke(state, _DRIVE, np.array([0.1, 0.0]))
    assert (len(builds), len(maps)) == (3, 3)


def test_drive_states_do_not_depend_on_the_other_times():
    # unordered, with a duplicate, within the first period and past it
    state = _initial_binomial(2, 4)
    times = np.array([0.3, 0.0, 12.0, 0.05, 1.7, 0.3])
    minus, plus = propagate_lamb_dicke(state, _DRIVE, times)
    perm = np.array([2, 5, 3, 0, 1, 4])
    permuted_minus, permuted_plus = propagate_lamb_dicke(state, _DRIVE, times[perm])
    assert np.array_equal(permuted_minus, minus[perm])
    assert np.array_equal(permuted_plus, plus[perm])
    for t, grid_minus, grid_plus in zip(times, minus, plus):
        (alone_minus,), (alone_plus,) = propagate_lamb_dicke(state, _DRIVE, np.array([t]))
        assert np.array_equal(alone_minus, grid_minus)
        assert np.array_equal(alone_plus, grid_plus)


def test_norm_drift_at_a_time_below_the_largest_raises(monkeypatch):
    # the state leaks norm only at the earlier of the two times, at every
    # step count, so the doubled steps do not mend it
    state = _initial_binomial(2, 4)
    times = np.array([0.3, 0.5])
    original = propagators._stepped_states
    seen_steps = []

    def leaky(h_ld, y0, times, steps):
        seen_steps.append(steps)
        states, period_map = original(h_ld, y0, times, steps)
        states[0] *= 1.0 + 1e-7
        return states, period_map

    propagate_lamb_dicke(state, _DRIVE, times)
    monkeypatch.setattr(propagators, "_stepped_states", leaky)
    with pytest.raises(RuntimeError, match="^norm drift 2.000e-07 exceeds 1e-08$"):
        propagate_lamb_dicke(state, _DRIVE, times)
    assert seen_steps == [101, 202, 404, 808]


def test_a_drifting_drive_is_redone_at_doubled_steps(monkeypatch):
    # the first pass leaks past the guard; the second, at twice the steps,
    # is kept, and gives what those steps give
    state = _initial_binomial(2, 4)
    times = np.array([0.3, 0.5])
    original = propagators._stepped_states
    seen_steps = []

    def leaky_once(h_ld, y0, times, steps):
        seen_steps.append(steps)
        states, period_map = original(h_ld, y0, times, steps)
        if len(seen_steps) == 1:
            states[0] *= 1.0 + 1e-7
        return states, period_map

    monkeypatch.setattr(propagators, "_stepped_states", leaky_once)
    minus, plus, defect = propagators._drive_states(state, _DRIVE, times)
    assert seen_steps == [101, 202]
    h = LambDickeHamiltonian(_DRIVE, 4, 4)
    states, doubled_maps = original(h, _vector(state), times, 202)
    assert np.array_equal(np.concatenate([minus, plus], axis=1).reshape(2, -1), states)
    # the defect is the doubled map's, far below the first pass's (RK4's
    # error falls as h^4)
    assert defect == pytest.approx(_unitarity_defect(doubled_maps), rel=1e-6)
    assert defect < 0.1 * _unitarity_defect(original(h, _vector(state), times, 101)[1])


def _matrix_power_states(h_ld, y0, times, steps):
    """Oracle for ``_stepped_states`` on the unsplit route: the full-vector
    RK4 map M of one period, M^n by ``np.linalg.matrix_power`` for each time,
    then the whole steps below r and one partial step to r, stepped on the
    vector."""
    period = h_ld.drive.period
    h = period / steps
    period_map = _rk4_reference(np.eye(len(y0), dtype=np.complex128), h_ld, 0.0, h, steps)
    states = []
    for t in times:
        whole, rest = divmod(float(t), period)
        y = np.linalg.matrix_power(period_map, int(whole)) @ y0
        done = min(int(rest / h), steps)
        y = _rk4_reference(y, h_ld, 0.0, h, done)
        partial = rest - done * h
        if partial > 0.0:
            y = _rk4_reference(y, h_ld, done * h, partial, 1)
        states.append(y)
    return np.array(states), period_map


def _unitarity_defect(maps):
    """max|M^dag M - I| over the sector maps of a stack, one map at a time."""
    return max(np.max(np.abs(m.conj().T @ m - np.eye(len(m)))) for m in maps)


def _assert_sector_maps_restrict(maps, full, order):
    """Each map of the (2, size, size) stack is the unsplit route's map
    ``full`` restricted to its sector's rows and columns, and ``full`` holds
    nothing between the sectors, so a map that leaks fails."""
    assert maps.shape == (2, order.shape[1], order.shape[1])
    for sector_map, row in zip(maps, order, strict=True):
        assert np.max(np.abs(sector_map - full[np.ix_(row, row)])) <= 1e-15
    assert np.max(np.abs(full[np.ix_(order[0], order[1])])) <= 1e-15
    assert np.max(np.abs(full[np.ix_(order[1], order[0])])) <= 1e-15


def _assert_stepped_states_match_the_oracle(h_ld, y0, times, steps):
    states, maps = propagators._stepped_states(h_ld, y0, times, steps)
    expected, expected_map = _matrix_power_states(h_ld, y0, times, steps)
    _assert_sector_maps_restrict(maps, expected_map, h_ld._sectors.order)
    assert np.max(np.abs(states - expected)) <= 1e-12


# eta_ld 0.99 redoes one drive of each suite at twice its steps
@pytest.mark.parametrize("full, eta_ld", [(False, 0.05), (True, 0.05), (False, 0.99), (True, 0.99)])
def test_suite_states_match_the_matrix_power_route(monkeypatch, full, eta_ld):
    calls = []
    stepped = propagators._stepped_states

    def recorded(*args):
        calls.append(args)
        return stepped(*args)

    monkeypatch.setattr(propagators, "_stepped_states", recorded)
    checks._suite_drives(1.0, eta_ld, full)
    monkeypatch.undo()
    ratios = checks.RWA_SUITES[full][0]
    assert len(calls) > len(ratios) if eta_ld == 0.99 else len(calls) == len(ratios)
    for args in calls:
        _assert_stepped_states_match_the_oracle(*args)


@pytest.mark.parametrize("nu", [16.0 * np.pi, 55.0])
def test_edge_times_match_the_matrix_power_route(nu):
    drive = Drive(omega=5.0, nu=nu, eta_ld=0.05, expansion_order=3)
    h = LambDickeHamiltonian(drive, 4, 4)
    period, steps = drive.period, drive.steps
    # at nu = 55 the float just below the period has rest / h == steps
    below = np.nextafter(period, 0.0)
    assert (nu != 55.0) or int(below / (period / steps)) == steps
    # t = 0, an exact multiple of the period at nu = 16 pi, and repeated,
    # unsorted times within the first period and past it
    times = np.array([4.3 * period, 0.0, below, 3.0 * period, 0.4 * period, 0.0, 4.3 * period,
                      2.0 * period + below])
    _assert_stepped_states_match_the_oracle(h, _vector(_initial_binomial(2, 4)), times, steps)


@pytest.mark.parametrize("full", [False, True])
def test_the_drive_lane_steps_the_identity_once_and_each_time_by_one_partial_step(
    monkeypatch, full
):
    # whether _rhs is called on the halves of a stack of maps (2) or of
    # states (1), one list per drive
    calls = []
    rhs, drive_states = propagators._rhs, propagators._drive_states

    def counted_rhs(couplings, y, out):
        calls[-1].append(2 if y[0].shape[-1] > 1 else 1)
        return rhs(couplings, y, out)

    def counted_drive_states(*args):
        calls.append([])
        return drive_states(*args)

    monkeypatch.setattr(propagators, "_rhs", counted_rhs)
    monkeypatch.setattr(propagators, "_drive_states", counted_drive_states)
    drives = checks._suite_drives(1.0, 0.05, full)
    assert len(calls) == len(drives) == len(checks.RWA_SUITES[full][0])
    for (drive, times, *_), ndims in zip(drives, calls):
        assert ndims.count(2) == 4 * drive.steps
        assert 0 < ndims.count(1) <= 4 * len(times)
        assert len(ndims) == ndims.count(1) + ndims.count(2)


# remainder differences at RK4 truncation level stay below this, fixed before
# the comparison was first run: the largest seen between two remainder routes
# on this grid was 1.3e-10
FOUR_TIMES_THE_STEPS_TOL = 1e-9


@pytest.mark.parametrize("ratio", [25.0, 50.0])
def test_grid_stepped_remainders_match_four_times_the_steps(ratio):
    # the remainders r of the default validate suite's times, and three more,
    # each taken as a time within the first period, so that U(r) alone is
    # compared: the period map's own error, which grows with the number of
    # whole periods, is left out
    drive = Drive(omega=1.0, nu=ratio, eta_ld=0.05, expansion_order=3)
    state = _initial_binomial(2, 4)
    suite_times = np.linspace(0.0, 0.3 / drive.coupling, 7)[1:]
    times = np.concatenate([np.mod(suite_times, drive.period),
                            np.array([0.13, 0.5, 0.999]) * drive.period])
    minus, plus = propagate_lamb_dicke(state, drive, times)
    h = LambDickeHamiltonian(drive, 4, 4)
    finer, _ = propagators._stepped_states(h, _vector(state), times, 4 * drive.steps)
    got = np.concatenate([minus.reshape(len(times), -1), plus.reshape(len(times), -1)], axis=1)
    assert np.max(np.abs(got - finer)) <= FOUR_TIMES_THE_STEPS_TOL


def _stepped_ground_populations(state, drive, times):
    """Reference for the period map: one state vector stepped through every
    drive period in turn, on the same aligned RK4 grid, by the unsplit route."""
    h = LambDickeHamiltonian(drive, state.cutoff_a, state.cutoff_b)
    period, steps = drive.period, drive.steps
    y = _vector(state)
    done = 0
    populations = []
    for t in times:
        whole, rest = divmod(float(t), period)
        while done < whole:
            y = _rk4_reference(y, h, done * period, period / steps, steps)
            done += 1
        remainder_steps = max(1, math.ceil(rest * steps / period))
        final = _rk4_reference(y, h, whole * period, rest / remainder_steps, remainder_steps)
        populations.append(float(np.sum(np.abs(final[: h.grid_size]) ** 2)))
    return np.array(populations)


# nu = 16 pi makes the period exactly 0.125, so 3 periods leave no remainder
@pytest.mark.parametrize("nu", [16.0 * np.pi, 50.0])
def test_period_map_matches_vector_stepping(nu):
    drive = Drive(omega=5.0, nu=nu, eta_ld=0.05, expansion_order=3)
    state = _initial_binomial(2, 4)
    period = 2.0 * np.pi / nu
    # below one period, an exact multiple, and whole periods plus a remainder
    times = np.array([0.4, 3.0, 4.3, 9.7]) * period
    expected = _stepped_ground_populations(state, drive, times)
    assert np.ptp(expected) > 1e-4  # the drive moves population over the span
    traj = ground_population_trajectory(state, drive, times)
    assert np.max(np.abs(traj - expected)) <= 1e-9
    for t, reference in zip(times, expected):
        (minus,), _ = propagate_lamb_dicke(state, drive, np.array([t]))
        assert np.sum(np.abs(minus) ** 2) == pytest.approx(reference, abs=1e-9)


def test_period_map_is_unitary_to_integration_error():
    h = LambDickeHamiltonian(_DRIVE, 4, 4)
    maps = one_period_map(h)
    assert maps.shape == (2, h.grid_size, h.grid_size)
    defect = np.max(np.abs(maps.conj().swapaxes(1, 2) @ maps - np.eye(h.grid_size)))
    assert defect <= 1e-10


# 20 * 5 nu overflows at nu = 1e307; 2 pi / nu overflows below about 3.5e-308
@pytest.mark.parametrize("nu", [1e307, 1.7976931348623157e308, 1e-309, 5e-324])
def test_a_drive_without_a_finite_step_count_raises_value_error(nu):
    with pytest.raises(ValueError, match="^nu = .* leaves the drive period "):
        Drive(omega=1.0, nu=nu, eta_ld=0.05, expansion_order=3)


def test_drive_period_takes_101_steps_at_nu_50():
    # T / dt is 100.00000000000001 here; the validate battery's numbers rest
    # on this grid, so a change to it must be deliberate
    drive = Drive(omega=1.0, nu=50.0, eta_ld=0.05, expansion_order=3)
    assert (drive.period, drive.steps) == (0.12566370614359174, 101)


@pytest.mark.parametrize("steps", [0, 1, 101])
@pytest.mark.parametrize("as_matrix", [False, True])
def test_rk4_span_is_classic_rk4_along_its_grid(steps, as_matrix):
    # the sector stack stepped along its grid is the unsplit route's RK4
    h = LambDickeHamiltonian(_DRIVE, 3, 3)
    rng = np.random.default_rng(steps)
    shape = (2 * h.grid_size, 5) if as_matrix else (2 * h.grid_size,)
    y = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    step = _DRIVE.period / max(steps, 1)
    grid = _period_grid(h, max(steps, 1))[: 2 * steps + 1]
    order = h._sectors.order
    stack = y[order].reshape(*order.shape, -1)  # a state is one column
    got = np.empty_like(y)
    got[order] = _rk4_span(stack, step, grid).reshape(y[order].shape)
    expected = _rk4_reference(y, h, 0.0, step, steps)
    assert np.max(np.abs(got - expected)) <= 1e-12
    assert not steps or not np.array_equal(got, y)
