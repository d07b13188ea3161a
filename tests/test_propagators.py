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
from ionparity.propagators import _squared_norms


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


def _full_hamiltonian(h: LambDickeHamiltonian, t: np.ndarray, sign: float = 1.0) -> np.ndarray:
    """H(t) = [[0, W(t)], [W(t)^dag, 0]] over the full state vector at each
    time of t, with W(t) = sum_m e^{i m nu t} W_m summed from the blocks
    (e^{-i m nu t} W_m, the wrong-sign drive, at sign -1)."""
    phases = np.exp(sign * 1j * np.multiply.outer(t, h.harmonics * h.drive.nu))
    couplings = np.einsum("tm,mij->tij", phases, h.blocks)
    zeros = np.zeros_like(couplings)
    return np.block([[zeros, couplings], [couplings.conj().swapaxes(1, 2), zeros]])


def _rk4_reference(y, h_ld, t0, h, steps, sign=1.0):
    """The oracle: classic RK4 over the full state vector, ``steps`` steps
    of h from t0, with H (of the phase ``sign``) formed afresh for each of
    the four stages."""
    y = y.copy()
    for i in range(steps):
        start, mid, end = _full_hamiltonian(h_ld, t0 + np.array([i, i + 0.5, i + 1.0]) * h, sign)
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


@pytest.mark.parametrize("nu", [math.inf, math.nan, 0.0, -1.0])
def test_a_drive_rejects_a_nu_that_is_not_finite_and_positive(nu):
    with pytest.raises(ValueError, match=f"^nu must be finite and positive, got {nu}$"):
        Drive(omega=1.0, nu=nu, eta_ld=0.05, expansion_order=3)


def test_drive_static_block_follows_the_documented_basis_order():
    # on a non-square grid the static order-2 block couples only
    # |n_a, n_b>|-> and |n_a - 1, n_b - 1>|+>, at the labelled positions
    drive = Drive(omega=1.0, nu=70.0, eta_ld=0.05, expansion_order=2)
    h = LambDickeHamiltonian(drive, 2, 3)
    assert np.array_equal(h.harmonics, np.arange(-4.0, 1.0))
    _assert_pair_exchange_block(h.blocks[-1], drive.coupling, 2, 3, atol=1e-15)
    # the drive lays its states out in the same order: |2, 1>|-> flattened
    # row-major and stepped by the unsplit route gives the same state
    state = _fock_state(2, 1, 2, 3)
    t = 0.37
    (minus,), (plus,) = propagate_lamb_dicke(state, drive, np.array([t]))
    stepped = _rk4_reference(_vector(state), h, 0.0, t / 400, 400)
    assert not np.allclose(stepped, _vector(state), atol=1e-3)
    assert np.max(np.abs(np.concatenate([minus.ravel(), plus.ravel()]) - stepped)) <= 1e-10


def test_drive_couplings_are_the_phased_sum_of_the_harmonic_blocks():
    # W(t) = sum_m e^{i m nu t} W_m, summed here term by term from the
    # blocks, and the frame's e^{iKt} H_c e^{-iKt} gives the same block
    h = LambDickeHamiltonian(_DRIVE, 2, 3)
    dim = h.grid_size
    assert np.array_equal(h.harmonics, np.arange(-5.0, 2.0))
    assert h.blocks.shape == (7, dim, dim)
    times = np.array([0.0, 0.123, 0.77, 29.9])
    couplings, framed = h.coupling(times), h.frame_coupling(times)
    assert couplings.shape == framed.shape == (len(times), dim, dim)
    static = h.blocks.sum(axis=0)
    lab = np.block([[np.zeros_like(static), static], [static.conj().T, np.zeros_like(static)]])
    for t, coupling, rotated in zip(times, couplings, framed, strict=True):
        expected = np.zeros((dim, dim), dtype=np.complex128)
        for m, block in zip(h.harmonics, h.blocks):
            expected += np.exp(1j * m * _DRIVE.nu * t) * block
        assert np.max(np.abs(coupling - expected)) <= 1e-15
        turn = np.diag(np.exp(1j * _DRIVE.nu * h.levels * t))
        turned = turn @ lab @ turn.conj()
        assert np.max(np.abs(turned[:dim, dim:] - expected)) <= 1e-14
        assert np.max(np.abs(rotated - expected)) <= 1e-15


# the frame K = nu (N + sigma_z), sigma_z = -1 on |->, over the documented order
def test_levels_are_the_total_quanta_plus_sigma_z():
    h = LambDickeHamiltonian(_DRIVE, 2, 3)
    quanta = [na + nb for na, nb in _grid_labels(2, 3)]
    assert np.array_equal(h.levels, np.array([n - 1.0 for n in quanta] + [n + 1.0 for n in quanta]))


@pytest.mark.parametrize("expansion_order", [2, 3, 4, 5, 6, 7])
@pytest.mark.parametrize("cutoff_a, cutoff_b",
                         [(2, 2), (3, 3), (4, 4), (5, 5), (6, 6), (2, 5), (6, 3), (4, 2)])
def test_every_block_couples_only_opposite_n_a_parities(expansion_order, cutoff_a, cutoff_b):
    # a -> -a swaps the diagonal modes, so P W_m P = -W_m for P = (-1)^{n_a}:
    # every entry between a |-> and a |+> state of equal n_a parity is 0.0,
    # which is all that lets every drive split into the two parity sectors
    drive = Drive(omega=1.3, nu=40.0, eta_ld=0.3, expansion_order=expansion_order)
    h = LambDickeHamiltonian(drive, cutoff_a, cutoff_b)
    labels = _grid_labels(cutoff_a, cutoff_b)
    parity = np.array([na % 2 for na, _ in labels])
    equal = parity[:, np.newaxis] == parity
    assert not np.any(h.blocks[:, equal])
    assert np.any(h.blocks[:, ~equal])
    # so the drive takes two sectors, each of every n_a parity's cells once
    order = h._sectors.order
    assert order.shape == (2, len(labels))
    assert sorted(np.concatenate(order).tolist()) == list(range(2 * len(labels)))


@pytest.mark.parametrize("expansion_order", [2, 3, 4, 5, 6, 7])
@pytest.mark.parametrize("cutoff_a, cutoff_b", [(4, 4), (6, 6), (2, 5), (6, 3)])
def test_every_block_changes_the_total_quanta_by_its_harmonic_plus_two(
    expansion_order, cutoff_a, cutoff_b
):
    # W_m[r, c] couples |+> state c to |-> state r only where N_r - N_c = m + 2,
    # which is all that makes H(t) = e^{iKt} H_c e^{-iKt} and the route exact
    drive = Drive(omega=1.3, nu=40.0, eta_ld=0.3, expansion_order=expansion_order)
    h = LambDickeHamiltonian(drive, cutoff_a, cutoff_b)
    quanta = np.array([na + nb for na, nb in _grid_labels(cutoff_a, cutoff_b)])
    change = quanta[:, np.newaxis] - quanta
    assert len(h.harmonics) == 2 * expansion_order + 1 and np.any(h.blocks)
    for m, block in zip(h.harmonics, h.blocks, strict=True):
        assert not np.any(block[change != m + 2])


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
    assert abs(traj[-1] - _squared_norms(minus)[0]) <= 1e-12
    assert abs(_squared_norms(minus)[0] + _squared_norms(plus)[0] - 1.0) <= 1e-12


def test_each_drive_call_builds_one_hamiltonian_and_one_eigensystem(monkeypatch):
    state = _initial_binomial(2, 3)
    builds, solves = [], []
    build, eigh = LambDickeHamiltonian.__init__, np.linalg.eigh

    def counted(self, *args, **kwargs):
        builds.append(args)
        build(self, *args, **kwargs)

    def counted_eigh(matrices):
        solves.append(matrices.shape)
        return eigh(matrices)

    monkeypatch.setattr(LambDickeHamiltonian, "__init__", counted)
    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
    ground_population_trajectory(state, _DRIVE, np.array([0.2, 0.5, 1.0, 40.0]))
    # one stack of the two sectors' half-size matrices, and one more that
    # solves each level's eigenvectors again, for every time
    assert (len(builds), solves) == (1, [(2, 16, 16), (2, 16, 16)])


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


# nu = 25 and eta_ld 0.05 are the default validate suite's first drive; at a
# whole number of periods and off them
@pytest.mark.parametrize("periods", [2.0, 1.37])
def test_rk4_oracle_converges_to_the_exact_route_at_fourth_order(periods):
    drive = Drive(omega=1.0, nu=25.0, eta_ld=0.05, expansion_order=3)
    h = LambDickeHamiltonian(drive, 4, 4)
    state = _initial_binomial(2, 4)
    t = periods * 2.0 * np.pi / drive.nu
    (minus,), (plus,) = propagate_lamb_dicke(state, drive, np.array([t]))
    exact = np.concatenate([minus.ravel(), plus.ravel()])
    errors = [np.max(np.abs(_rk4_reference(_vector(state), h, 0.0, t / steps, steps) - exact))
              for steps in (20, 40, 80, 160)]
    # each doubling of the steps divides RK4's error by 2^4, down to 3e-10
    ratios = [coarse / fine for coarse, fine in zip(errors, errors[1:])]
    assert all(14.0 < ratio < 17.0 for ratio in ratios), errors
    assert errors[-1] < 1e-9


def test_a_frame_of_the_wrong_sign_solves_the_wrong_sign_drive(monkeypatch):
    # -K turns H_c into sum_m e^{-i m nu t} W_m: the route then gives that
    # drive's states, far from the right drive's
    drive = Drive(omega=1.0, nu=10.0, eta_ld=0.3, expansion_order=3)
    h = LambDickeHamiltonian(drive, 4, 4)
    state = _initial_binomial(2, 4)
    t = np.array([0.83])
    right = np.concatenate([grids.ravel() for grids in propagate_lamb_dicke(state, drive, t)])
    stepped = _rk4_reference(_vector(state), h, 0.0, t[0] / 400, 400, sign=-1.0)
    levels = LambDickeHamiltonian.levels
    monkeypatch.setattr(LambDickeHamiltonian, "levels", property(lambda self: -levels.func(self)))
    wrong = np.concatenate([grids.ravel() for grids in propagate_lamb_dicke(state, drive, t)])
    assert np.max(np.abs(wrong - stepped)) <= 1e-8
    assert np.max(np.abs(wrong - right)) > 1e-3


def test_the_drive_keeps_its_slow_exchange_over_the_times_of_a_weak_coupling():
    # as eta_ld -> 0 the populations at the times x / g tend to one limit,
    # while nu t grows as 1 / eta_ld^2 (1.9e17 at eta_ld 1e-8): eigenvalues
    # resolved only to eps |K| would move them by O(1) there
    state = _initial_binomial(2, 4)
    x = np.linspace(0.0, 0.3, 7)[1:]
    populations = []
    for eta_ld in (1e-5, 1e-8):
        drive = Drive(omega=1.0, nu=25.0, eta_ld=eta_ld, expansion_order=3)
        minus, plus = propagate_lamb_dicke(state, drive, x / drive.coupling)
        populations.append(np.abs(np.concatenate([minus, plus], axis=1)) ** 2)
    assert np.max(np.abs(populations[0] - populations[1])) <= 1e-11
