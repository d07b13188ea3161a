import math

import numpy as np
import pytest

from ionparity import (
    LambDickeHamiltonian,
    PhysicalParams,
    TruncationError,
    TwoModeState,
    VibronicState,
    evolve_closed_form,
    ground_population_trajectory,
    ground_probability,
    pair_exchange_matrix,
    propagate_effective,
    propagate_lamb_dicke,
    symmetric_binomial_amplitudes,
    vibrational_entropy,
)
from ionparity import propagators
from ionparity.propagators import _rk4_span, _squared_norms, one_period_map


def _zero_like(state: TwoModeState) -> TwoModeState:
    return TwoModeState(np.zeros_like(state.amplitudes))


def _fock_state(n_a: int, n_b: int, cutoff_a: int, cutoff_b: int) -> VibronicState:
    """|n_a, n_b>|-> with an empty |+> component."""
    grid = np.zeros((cutoff_a + 1, cutoff_b + 1), dtype=np.complex128)
    grid[n_a, n_b] = 1.0
    return VibronicState(TwoModeState(grid), TwoModeState(np.zeros_like(grid)))


def _initial_binomial(n_total: int, cutoff: int) -> VibronicState:
    k = np.arange(n_total + 1)
    grid = np.zeros((cutoff + 1, cutoff + 1), dtype=np.complex128)
    grid[n_total - k, k] = symmetric_binomial_amplitudes(n_total)
    minus = TwoModeState(grid)
    return VibronicState(minus, _zero_like(minus))


def _random_interior_state(rng, cutoff: int) -> VibronicState:
    minus = rng.standard_normal((cutoff + 1, cutoff + 1)) + 1j * rng.standard_normal(
        (cutoff + 1, cutoff + 1)
    )
    plus = rng.standard_normal((cutoff + 1, cutoff + 1)) + 1j * rng.standard_normal(
        (cutoff + 1, cutoff + 1)
    )
    plus[-1, :] = 0.0  # keep the coupling partner of every plus cell on the grid
    plus[:, -1] = 0.0
    norm = np.sqrt(np.sum(np.abs(minus) ** 2) + np.sum(np.abs(plus) ** 2))
    return VibronicState(TwoModeState(minus / norm), TwoModeState(plus / norm))


def _vector(state: VibronicState) -> np.ndarray:
    """The drive's state vector: the |-> grid, then the |+> grid, each row-major."""
    return np.concatenate(
        [state.minus_component.amplitudes.ravel(), state.plus_component.amplitudes.ravel()]
    )


def _grid_labels(cutoff_a: int, cutoff_b: int) -> list[tuple[int, int]]:
    """The documented order of each half of a flattened state, and so of the
    rows (|->) and columns (|+>) of a coupling block: row-major over (n_a, n_b)."""
    return [(na, nb) for na in range(cutoff_a + 1) for nb in range(cutoff_b + 1)]


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
    params = PhysicalParams(omega=1.0, nu=50.0, eta_ld=0.05)
    times = np.array([0.0, 0.5, 1.5])
    shape = (3, cutoff_a + 1, cutoff_b + 1)
    for minus, plus in (
        propagate_effective(state, 1.0, times),
        propagate_lamb_dicke(state, params, 3, times),
    ):
        assert minus.shape == plus.shape == shape
        assert minus.dtype == plus.dtype == np.complex128
        # t = 0 returns the initial state itself
        assert np.array_equal(minus[0], state.minus_component.amplitudes)
        assert np.array_equal(plus[0], state.plus_component.amplitudes)
    for minus, plus in (
        propagate_effective(state, 1.0, np.array([])),
        propagate_lamb_dicke(state, params, 3, np.array([])),
    ):
        assert minus.shape == plus.shape == (0, cutoff_a + 1, cutoff_b + 1)
    assert ground_population_trajectory(state, params, 3, np.array([])).shape == (0,)


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
            assert np.allclose(grid, initial.minus_component.amplitudes, atol=1e-15)
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
    rng = np.random.default_rng(8)
    cutoff = 4
    state = _random_interior_state(rng, cutoff)
    coupling, times = 0.9, np.array([1.7, 0.4, 6.1])
    minus, plus = propagate_effective(state, coupling, times)

    block = pair_exchange_matrix(coupling, cutoff, cutoff)
    h = np.block([[np.zeros_like(block), block], [block.conj().T, np.zeros_like(block)]])
    evals, evecs = np.linalg.eigh(h)
    y0 = _vector(state)
    dim = (cutoff + 1) ** 2
    for t, evolved_minus, evolved_plus in zip(times, minus, plus):
        y1 = evecs @ (np.exp(-1j * evals * t) * (evecs.conj().T @ y0))
        assert np.allclose(evolved_minus.ravel(), y1[:dim], atol=1e-12)
        assert np.allclose(evolved_plus.ravel(), y1[dim:], atol=1e-12)


def test_propagator_conserves_norm_and_sectors():
    rng = np.random.default_rng(4)
    state = _random_interior_state(rng, 5)

    def sector_populations(minus: np.ndarray, plus: np.ndarray) -> dict:
        pops: dict[int, float] = {}
        for (na, nb), amp in np.ndenumerate(minus):
            pops[na + nb] = pops.get(na + nb, 0.0) + abs(amp) ** 2
        for (na, nb), amp in np.ndenumerate(plus):
            pops[na + nb + 2] = pops.get(na + nb + 2, 0.0) + abs(amp) ** 2
        return pops

    before = sector_populations(state.minus_component.amplitudes, state.plus_component.amplitudes)
    for minus, plus in zip(*propagate_effective(state, 1.1, np.array([3.3, 0.8]))):
        after = sector_populations(minus, plus)
        assert abs(sum(after.values()) - 1.0) <= 1e-12
        for sector, population in before.items():
            assert after.get(sector, 0.0) == pytest.approx(population, abs=1e-12)


def test_propagator_rejects_boundary_population():
    plus = np.zeros((3, 3), dtype=complex)
    plus[2, 1] = 1.0  # coupling partner |3,2> is outside the grid
    state = VibronicState(TwoModeState(np.zeros((3, 3))), TwoModeState(plus))
    with pytest.raises(TruncationError):
        propagate_effective(state, 1.0, np.array([0.5]))


_PARAMS = PhysicalParams(omega=1.0, nu=50.0, eta_ld=0.05)

# every evolution route, called at the times t
_ROUTES = {
    "evolve_closed_form": lambda t: evolve_closed_form(3, 1.0, np.array([0.5, t])),
    "ground_probability": lambda t: ground_probability(3, 1.0, t),
    "vibrational_entropy": lambda t: vibrational_entropy(3, 1.0, t),
    "propagate_effective": lambda t: propagate_effective(
        _initial_binomial(2, 3), 1.0, np.array([0.5, t])),
    "propagate_lamb_dicke": lambda t: propagate_lamb_dicke(
        _initial_binomial(2, 3), _PARAMS, 3, np.array([0.0, t])),
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
    "propagate_lamb_dicke": lambda t: propagate_lamb_dicke(_initial_binomial(2, 3), _PARAMS, 3, t),
    "ground_population_trajectory": lambda t: ground_population_trajectory(
        _initial_binomial(2, 3), _PARAMS, 3, t),
}


@pytest.mark.parametrize("route", sorted(_STACK_ROUTES))
@pytest.mark.parametrize("t", [0.5, np.array(0.5), np.array([[0.5, 1.0]])])
def test_stack_routes_reject_times_that_are_not_1d(route, t):
    with pytest.raises(ValueError, match="^times must be a 1-D array, got shape"):
        _STACK_ROUTES[route](t)


def test_drive_validation():
    params = PhysicalParams(omega=1.0, nu=50.0, eta_ld=0.05)
    with pytest.raises(ValueError, match="expansion_order"):
        LambDickeHamiltonian(params, 1, 3, 3)
    with pytest.raises(ValueError, match="eta_ld"):
        LambDickeHamiltonian(PhysicalParams(omega=1.0, nu=50.0, eta_ld=1.2), 2, 3, 3)
    with pytest.raises(ValueError, match="omega"):
        LambDickeHamiltonian(PhysicalParams(nu=50.0, eta_ld=0.05), 2, 3, 3)
    with pytest.raises(ValueError, match="t must be finite"):
        propagate_lamb_dicke(_initial_binomial(2, 3), params, 3, np.array([math.inf]))


def test_drive_static_block_follows_the_documented_basis_order():
    # on a non-square grid the static order-2 block couples only
    # |n_a, n_b>|-> and |n_a - 1, n_b - 1>|+>, at the labelled positions
    params = PhysicalParams(omega=1.0, nu=70.0, eta_ld=0.05)
    h = LambDickeHamiltonian(params, 2, 2, 3)
    assert np.array_equal(h.harmonics, np.arange(-4.0, 1.0))
    _assert_pair_exchange_block(h.blocks[-1], params.effective_coupling(), 2, 3, atol=1e-15)
    # the drive lays its states out in the same order: |2, 1>|-> flattened
    # row-major and stepped through the same RK4 span gives the same state
    state = _fock_state(2, 1, 2, 3)
    t = 0.7 * h.period
    (minus,), (plus,) = propagate_lamb_dicke(state, params, 2, np.array([t]))
    stepped = _rk4_span(h, _vector(state), 0.0, t, math.ceil(t * h.steps / h.period))
    assert not np.array_equal(stepped, _vector(state))
    assert np.array_equal(np.concatenate([minus.ravel(), plus.ravel()]), stepped)


def test_drive_couplings_are_the_phased_sum_of_the_harmonic_blocks():
    # W(t) = sum_m e^{i m nu t} W_m, summed here term by term from the blocks
    params = PhysicalParams(omega=1.0, nu=50.0, eta_ld=0.05)
    h = LambDickeHamiltonian(params, 3, 2, 3)
    dim = h.grid_size
    assert np.array_equal(h.harmonics, np.arange(-5.0, 2.0))
    assert h.blocks.shape == (7, dim, dim)
    for t in (0.0, 0.123, 0.77, 29.9):
        expected = np.zeros((dim, dim), dtype=np.complex128)
        for m, block in zip(h.harmonics, h.blocks):
            expected += np.exp(1j * m * params.nu * t) * block
        coupling_block, coupling_dag = h._couplings(t)
        assert np.max(np.abs(coupling_block - expected)) <= 1e-15
        assert np.array_equal(coupling_dag, coupling_block.conj().T)


def test_drive_static_part_equals_pair_exchange():
    params = PhysicalParams(omega=1.0, nu=70.0, eta_ld=0.05)
    h = LambDickeHamiltonian(params, 2, 4, 4)
    pair = pair_exchange_matrix(params.effective_coupling(), 4, 4)
    (static,) = h.blocks[h.harmonics == 0.0]
    assert np.allclose(static, pair, atol=1e-15)


def test_drive_off_is_identity():
    params = PhysicalParams(omega=0.0, nu=50.0, eta_ld=0.05)
    state = _initial_binomial(2, 4)
    (minus,), (plus,) = propagate_lamb_dicke(state, params, 3, np.array([5.0]))
    assert np.allclose(minus, state.minus_component.amplitudes, atol=1e-12)
    assert np.sum(np.abs(plus) ** 2) <= 1e-24


def test_zero_lamb_dicke_parameter_is_trivial():
    # the two beams cancel order by order when eta = 0
    params = PhysicalParams(omega=1.0, nu=50.0, eta_ld=0.0)
    state = _initial_binomial(2, 4)
    (minus,), _ = propagate_lamb_dicke(state, params, 2, np.array([5.0]))
    assert np.allclose(minus, state.minus_component.amplitudes, atol=1e-12)


def test_drive_tracks_pair_exchange_model():
    params = PhysicalParams(omega=1.0, nu=50.0, eta_ld=0.05)
    g_eff = params.effective_coupling()
    state = _initial_binomial(2, 4)
    times = np.linspace(0.0, 0.1 / g_eff, 5)[1:]
    driven = ground_population_trajectory(state, params, 3, times)
    reference = _squared_norms(propagate_effective(state, g_eff, times)[0])
    assert np.max(np.abs(driven - reference)) < 5e-4


def test_trajectory_consistent_with_single_run():
    params = PhysicalParams(omega=1.0, nu=50.0, eta_ld=0.05)
    state = _initial_binomial(2, 4)
    times = np.array([3.0, 7.0, 12.0])
    traj = ground_population_trajectory(state, params, 3, times)
    minus, plus = propagate_lamb_dicke(state, params, 3, times[-1:])
    assert abs(traj[-1] - _squared_norms(minus)[0]) <= 1e-9
    assert abs(_squared_norms(minus)[0] + _squared_norms(plus)[0] - 1.0) <= 1e-8


def test_each_drive_call_builds_one_hamiltonian_and_one_period_map(monkeypatch):
    params = PhysicalParams(omega=1.0, nu=50.0, eta_ld=0.05)
    state = _initial_binomial(2, 3)
    builds, maps = [], []
    build, build_map = LambDickeHamiltonian.__init__, one_period_map

    def counted(self, *args, **kwargs):
        builds.append(args)
        build(self, *args, **kwargs)

    def counted_map(h_ld):
        maps.append(h_ld)
        return build_map(h_ld)

    monkeypatch.setattr(LambDickeHamiltonian, "__init__", counted)
    monkeypatch.setattr(propagators, "one_period_map", counted_map)
    propagate_lamb_dicke(state, params, 3, np.array([1.0]))
    assert (len(builds), len(maps)) == (1, 1)
    # three times of 1, 3 and 7 whole periods share the one map
    ground_population_trajectory(state, params, 3, np.array([0.2, 0.5, 1.0]))
    assert (len(builds), len(maps)) == (2, 2)
    # times within the first period build it too, and raise it to the power 0
    propagate_lamb_dicke(state, params, 3, np.array([0.1, 0.0]))
    assert (len(builds), len(maps)) == (3, 3)


def test_drive_states_do_not_depend_on_the_other_times():
    # unordered, with a duplicate, within the first period and past it
    params = PhysicalParams(omega=1.0, nu=50.0, eta_ld=0.05)
    state = _initial_binomial(2, 4)
    times = np.array([0.3, 0.0, 12.0, 0.05, 1.7, 0.3])
    minus, plus = propagate_lamb_dicke(state, params, 3, times)
    perm = np.array([2, 5, 3, 0, 1, 4])
    permuted_minus, permuted_plus = propagate_lamb_dicke(state, params, 3, times[perm])
    assert np.array_equal(permuted_minus, minus[perm])
    assert np.array_equal(permuted_plus, plus[perm])
    for t, grid_minus, grid_plus in zip(times, minus, plus):
        (alone_minus,), (alone_plus,) = propagate_lamb_dicke(state, params, 3, np.array([t]))
        assert np.array_equal(alone_minus, grid_minus)
        assert np.array_equal(alone_plus, grid_plus)


def test_norm_drift_at_a_time_below_the_largest_raises(monkeypatch):
    # the state leaks norm only at the earlier of the two times
    params = PhysicalParams(omega=1.0, nu=50.0, eta_ld=0.05)
    state = _initial_binomial(2, 4)
    times = np.array([0.3, 0.5])
    leaky_rest = divmod(float(times[0]), 2.0 * np.pi / params.nu)[1]
    original = propagators._rk4_span

    def leaky(h_ld, y, t0, t1, steps):
        out = original(h_ld, y, t0, t1, steps)
        return out * (1.0 + 1e-7) if t1 == leaky_rest else out

    propagate_lamb_dicke(state, params, 3, times)
    monkeypatch.setattr(propagators, "_rk4_span", leaky)
    with pytest.raises(RuntimeError, match="^norm drift 2.000e-07 exceeds 1e-08$"):
        propagate_lamb_dicke(state, params, 3, times)


def _stepped_ground_populations(state, params, order, times):
    """Reference for the period map: one state vector stepped through every
    drive period in turn, on the same aligned RK4 grid."""
    h = LambDickeHamiltonian(params, order, state.cutoff_a, state.cutoff_b)
    period, steps = h.period, h.steps
    y = _vector(state)
    done = 0
    populations = []
    for t in times:
        whole, rest = divmod(float(t), period)
        while done < whole:
            y = _rk4_span(h, y, done * period, (done + 1) * period, steps)
            done += 1
        final = _rk4_span(h, y, whole * period, t, math.ceil(rest * steps / period))
        populations.append(float(np.sum(np.abs(final[: h.grid_size]) ** 2)))
    return np.array(populations)


# nu = 16 pi makes the period exactly 0.125, so 3 periods leave no remainder
@pytest.mark.parametrize("nu", [16.0 * np.pi, 50.0])
def test_period_map_matches_vector_stepping(nu):
    params = PhysicalParams(omega=5.0, nu=nu, eta_ld=0.05)
    state = _initial_binomial(2, 4)
    period = 2.0 * np.pi / nu
    # below one period, an exact multiple, and whole periods plus a remainder
    times = np.array([0.4, 3.0, 4.3, 9.7]) * period
    expected = _stepped_ground_populations(state, params, 3, times)
    assert np.ptp(expected) > 1e-4  # the drive moves population over the span
    traj = ground_population_trajectory(state, params, 3, times)
    assert np.max(np.abs(traj - expected)) <= 1e-9
    for t, reference in zip(times, expected):
        (minus,), _ = propagate_lamb_dicke(state, params, 3, np.array([t]))
        assert np.sum(np.abs(minus) ** 2) == pytest.approx(reference, abs=1e-9)


def test_period_map_is_unitary_to_integration_error():
    params = PhysicalParams(omega=1.0, nu=50.0, eta_ld=0.05)
    h = LambDickeHamiltonian(params, 3, 4, 4)
    period_map = one_period_map(h)
    defect = np.max(np.abs(period_map.conj().T @ period_map - np.eye(len(period_map))))
    assert defect <= 1e-10


# 20 * 5 nu overflows at nu = 1e307; 2 pi / nu overflows below about 3.5e-308
@pytest.mark.parametrize("nu", [1e307, 1.7976931348623157e308, 1e-309, 5e-324])
def test_a_drive_without_a_finite_step_count_raises_value_error(nu):
    params = PhysicalParams(omega=1.0, nu=nu, eta_ld=0.05)
    with pytest.raises(ValueError, match="^nu = .* leaves the drive period "):
        LambDickeHamiltonian(params, 3, 2, 2)


def test_drive_period_takes_101_steps_at_nu_50():
    # T / dt is 100.00000000000001 here; the validate battery's numbers rest
    # on this grid, so a change to it must be deliberate
    h = LambDickeHamiltonian(PhysicalParams(omega=1.0, nu=50.0, eta_ld=0.05), 3, 5, 5)
    assert (h.period, h.steps) == (0.12566370614359174, 101)


def _rk4_reference(h, y, t0, t1, steps):
    """Classic RK4 with the coupling evaluated afresh for each of the four
    stages of every step."""
    y = y.copy()
    dt = (t1 - t0) / steps if steps else 0.0
    k1, k2, k3, k4 = (np.empty_like(y) for _ in range(4))
    for i in range(steps):
        t = t0 + i * dt
        h._rhs(h._couplings(t), y, out=k1)
        h._rhs(h._couplings(t + 0.5 * dt), y + 0.5 * dt * k1, out=k2)
        h._rhs(h._couplings(t + 0.5 * dt), y + 0.5 * dt * k2, out=k3)
        h._rhs(h._couplings(t + dt), y + dt * k3, out=k4)
        y += (dt / 6.0) * ((k1 + k4) + 2.0 * (k2 + k3))
    return y


@pytest.mark.parametrize("steps", [0, 1, 101])
@pytest.mark.parametrize("as_matrix", [False, True])
def test_rk4_span_reuses_couplings_without_changing_a_bit(steps, as_matrix):
    params = PhysicalParams(omega=1.0, nu=50.0, eta_ld=0.05)
    h = LambDickeHamiltonian(params, 3, 3, 3)
    rng = np.random.default_rng(steps)
    shape = (2 * h.grid_size, 5) if as_matrix else (2 * h.grid_size,)
    y = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    # t0 = 0.3 puts steps whose end time t + h differs from the next start
    got = _rk4_span(h, y, 0.3, 0.3 + 2.0 * np.pi / 50.0, steps)
    expected = _rk4_reference(h, y, 0.3, 0.3 + 2.0 * np.pi / 50.0, steps)
    assert np.array_equal(got, expected)
    assert not steps or not np.array_equal(got, y)
