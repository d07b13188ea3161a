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
)
from ionparity.propagators import _flatten, _period_grid, _rk4_span, one_period_map


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


def _basis_labels(cutoff_a: int, cutoff_b: int) -> list[tuple[str, int, int]]:
    """The documented basis order of the dense matrices: the |-> grid, then
    the |+> grid, each row-major over (n_a, n_b)."""
    return [
        (sign, na, nb)
        for sign in ("-", "+")
        for na in range(cutoff_a + 1)
        for nb in range(cutoff_b + 1)
    ]


@pytest.mark.parametrize("cutoff_a, cutoff_b", [(3, 3), (2, 4), (4, 1)])
def test_pair_exchange_matrix_structure(cutoff_a, cutoff_b):
    matrix = pair_exchange_matrix(1.3, cutoff_a, cutoff_b)
    labels = _basis_labels(cutoff_a, cutoff_b)
    assert np.array_equal(matrix, matrix.conj().T)
    for i, (sign_i, na_i, nb_i) in enumerate(labels):
        for j, (sign_j, na_j, nb_j) in enumerate(labels):
            element = matrix[i, j]
            if sign_i == "-" and sign_j == "+" and (na_j, nb_j) == (na_i - 1, nb_i - 1):
                assert element == pytest.approx(1.3 * np.sqrt(na_i * nb_i))
            elif sign_i == "+" and sign_j == "-" and (na_j, nb_j) == (na_i + 1, nb_i + 1):
                assert element == pytest.approx(1.3 * np.sqrt(na_j * nb_j))
            else:
                assert element == 0.0


def test_full_exchange_flop():
    initial = _fock_state(1, 1, 2, 2)
    final = propagate_effective(initial, 1.0, np.pi / 2.0)
    # |1,1>|-> flops to |0,0>|+> with phase -i after a quarter rotation period
    assert final.plus_component.amplitudes[0, 0] == pytest.approx(-1j, abs=1e-12)
    assert abs(final.minus_component.amplitudes[1, 1]) <= 1e-12


def test_single_mode_occupation_is_stationary():
    for n in (3, 6):
        initial = _fock_state(n, 0, 6, 6)
        final = propagate_effective(initial, 2.0, 1.234)
        assert np.allclose(
            final.minus_component.amplitudes, initial.minus_component.amplitudes, atol=1e-15
        )
        assert final.plus_component.squared_norm() == 0.0


def test_propagator_matches_closed_form():
    # closed-form rate g corresponds to propagator coupling 2 g
    rng = np.random.default_rng(2)
    g = 1.0
    for n in range(1, 7):
        initial = _initial_binomial(n, n)
        for t in rng.uniform(0.0, 10.0, size=10):
            evolved = propagate_effective(initial, 2.0 * g, float(t))
            reference = evolve_closed_form(n, g, float(t))
            assert np.allclose(
                evolved.minus_component.amplitudes,
                reference.minus_component.amplitudes,
                atol=1e-12,
            )
            assert np.allclose(
                evolved.plus_component.amplitudes,
                reference.plus_component.amplitudes,
                atol=1e-12,
            )
            assert evolved.ground_population() == pytest.approx(
                ground_probability(n, g, float(t)), abs=1e-12
            )


def test_propagator_matches_dense_matrix_exponential():
    rng = np.random.default_rng(8)
    cutoff = 4
    state = _random_interior_state(rng, cutoff)
    coupling, t = 0.9, 1.7
    evolved = propagate_effective(state, coupling, t)

    h = pair_exchange_matrix(coupling, cutoff, cutoff)
    evals, evecs = np.linalg.eigh(h)
    y0 = np.concatenate(
        [state.minus_component.amplitudes.ravel(), state.plus_component.amplitudes.ravel()]
    )
    y1 = evecs @ (np.exp(-1j * evals * t) * (evecs.conj().T @ y0))
    dim = (cutoff + 1) ** 2
    assert np.allclose(evolved.minus_component.amplitudes.ravel(), y1[:dim], atol=1e-12)
    assert np.allclose(evolved.plus_component.amplitudes.ravel(), y1[dim:], atol=1e-12)


def test_propagator_conserves_norm_and_sectors():
    rng = np.random.default_rng(4)
    state = _random_interior_state(rng, 5)

    def sector_populations(s: VibronicState) -> dict:
        pops: dict[int, float] = {}
        for (na, nb), amp in np.ndenumerate(s.minus_component.amplitudes):
            pops[na + nb] = pops.get(na + nb, 0.0) + abs(amp) ** 2
        for (na, nb), amp in np.ndenumerate(s.plus_component.amplitudes):
            pops[na + nb + 2] = pops.get(na + nb + 2, 0.0) + abs(amp) ** 2
        return pops

    before = sector_populations(state)
    after = sector_populations(propagate_effective(state, 1.1, 3.3))
    assert abs(sum(after.values()) - 1.0) <= 1e-12
    for sector, population in before.items():
        assert after.get(sector, 0.0) == pytest.approx(population, abs=1e-12)


def test_propagator_rejects_boundary_population():
    plus = np.zeros((3, 3), dtype=complex)
    plus[2, 1] = 1.0  # coupling partner |3,2> is outside the grid
    state = VibronicState(TwoModeState(np.zeros((3, 3))), TwoModeState(plus))
    with pytest.raises(TruncationError):
        propagate_effective(state, 1.0, 0.5)


def test_drive_validation():
    params = PhysicalParams(omega=1.0, nu=50.0, eta_ld=0.05)
    with pytest.raises(ValueError, match="expansion_order"):
        LambDickeHamiltonian(params, 1, 3, 3)
    with pytest.raises(ValueError, match="eta_ld"):
        LambDickeHamiltonian(PhysicalParams(omega=1.0, nu=50.0, eta_ld=1.2), 2, 3, 3)
    with pytest.raises(ValueError, match="omega"):
        LambDickeHamiltonian(PhysicalParams(nu=50.0, eta_ld=0.05), 2, 3, 3)
    with pytest.raises(ValueError, match="t must be finite"):
        propagate_lamb_dicke(_initial_binomial(2, 3), params, 3, math.inf)


def test_drive_matrix_is_hermitian():
    params = PhysicalParams(omega=1.0, nu=50.0, eta_ld=0.05)
    h = LambDickeHamiltonian(params, 3, 3, 3)
    for t in (0.0, 0.123, 0.77):
        matrix = h.matrix_at(t)
        assert np.allclose(matrix, matrix.conj().T, atol=1e-14)


def test_drive_matrix_follows_the_documented_basis_order():
    # on a non-square grid the static order-2 term couples only
    # |n_a, n_b>|-> and |n_a - 1, n_b - 1>|+>, at the labelled positions
    params = PhysicalParams(omega=1.0, nu=70.0, eta_ld=0.05)
    matrix = LambDickeHamiltonian(params, 2, 2, 3, resonant_only=True).matrix_at(0.4)
    labels = _basis_labels(2, 3)
    coupling = params.effective_coupling()
    for i, (sign_i, na_i, nb_i) in enumerate(labels):
        for j, (sign_j, na_j, nb_j) in enumerate(labels):
            if sign_i == "-" and sign_j == "+" and (na_j, nb_j) == (na_i - 1, nb_i - 1):
                assert matrix[i, j] == pytest.approx(coupling * np.sqrt(na_i * nb_i), abs=1e-15)
            elif sign_i == "+" and sign_j == "-" and (na_j, nb_j) == (na_i + 1, nb_i + 1):
                assert matrix[i, j] == pytest.approx(coupling * np.sqrt(na_j * nb_j), abs=1e-15)
            else:
                assert abs(matrix[i, j]) <= 1e-15
    # states flatten in the same order
    state = _fock_state(2, 1, 2, 3)
    assert labels[int(np.flatnonzero(_flatten(state))[0])] == ("-", 2, 1)


def test_drive_matrix_is_the_phased_sum_of_its_harmonic_blocks():
    # H(t) = [[0, W(t)], [W(t)^dag, 0]] with W(t) = sum_m e^{i m nu t} W_m,
    # summed here term by term from the stored blocks W_m
    params = PhysicalParams(omega=1.0, nu=50.0, eta_ld=0.05)
    h = LambDickeHamiltonian(params, 3, 2, 3)
    dim = h.grid_size
    assert np.array_equal(h.harmonics, np.arange(-5.0, 2.0))
    blocks = h._flat_blocks.reshape(len(h.harmonics), dim, dim)
    for t in (0.0, 0.123, 0.77, 29.9):
        expected = np.zeros((dim, dim), dtype=np.complex128)
        for m, block in zip(h.harmonics, blocks):
            expected += np.exp(1j * m * params.nu * t) * block
        matrix = h.matrix_at(t)
        assert np.max(np.abs(matrix[:dim, dim:] - expected)) <= 1e-15
        assert np.max(np.abs(matrix[dim:, :dim] - expected.conj().T)) <= 1e-15
        assert not matrix[:dim, :dim].any() and not matrix[dim:, dim:].any()


def test_drive_static_part_equals_pair_exchange():
    params = PhysicalParams(omega=1.0, nu=70.0, eta_ld=0.05)
    static = LambDickeHamiltonian(params, 2, 4, 4, resonant_only=True)
    pair = pair_exchange_matrix(params.effective_coupling(), 4, 4)
    assert np.allclose(static.matrix_at(0.0), pair, atol=1e-15)
    assert np.allclose(static.matrix_at(0.9), pair, atol=1e-15)


def test_drive_off_is_identity():
    params = PhysicalParams(omega=0.0, nu=50.0, eta_ld=0.05)
    state = _initial_binomial(2, 4)
    final = propagate_lamb_dicke(state, params, 3, 5.0)
    assert np.allclose(
        final.minus_component.amplitudes, state.minus_component.amplitudes, atol=1e-12
    )
    assert final.plus_component.squared_norm() <= 1e-24


def test_zero_lamb_dicke_parameter_is_trivial():
    # the two beams cancel order by order when eta = 0
    params = PhysicalParams(omega=1.0, nu=50.0, eta_ld=0.0)
    state = _initial_binomial(2, 4)
    final = propagate_lamb_dicke(state, params, 2, 5.0)
    assert np.allclose(
        final.minus_component.amplitudes, state.minus_component.amplitudes, atol=1e-12
    )


def test_drive_tracks_pair_exchange_model():
    params = PhysicalParams(omega=1.0, nu=50.0, eta_ld=0.05)
    g_eff = params.effective_coupling()
    state = _initial_binomial(2, 4)
    times = np.linspace(0.0, 0.1 / g_eff, 5)[1:]
    driven = ground_population_trajectory(state, params, 3, times)
    for t, population in zip(times, driven):
        reference = propagate_effective(state, g_eff, float(t)).ground_population()
        assert abs(population - reference) < 5e-4


def test_trajectory_consistent_with_single_run():
    params = PhysicalParams(omega=1.0, nu=50.0, eta_ld=0.05)
    state = _initial_binomial(2, 4)
    times = np.array([3.0, 7.0, 12.0])
    traj = ground_population_trajectory(state, params, 3, times)
    final = propagate_lamb_dicke(state, params, 3, 12.0)
    assert traj[-1] == pytest.approx(final.ground_population(), abs=1e-9)
    assert abs(final.total_squared_norm() - 1.0) <= 1e-8


def test_each_drive_call_builds_one_hamiltonian(monkeypatch):
    params = PhysicalParams(omega=1.0, nu=50.0, eta_ld=0.05)
    state = _initial_binomial(2, 3)
    builds = []
    build = LambDickeHamiltonian.__init__

    def counted(self, *args, **kwargs):
        builds.append(args)
        build(self, *args, **kwargs)

    monkeypatch.setattr(LambDickeHamiltonian, "__init__", counted)
    propagate_lamb_dicke(state, params, 3, 1.0)
    assert len(builds) == 1
    ground_population_trajectory(state, params, 3, np.array([0.2, 0.5, 1.0]))
    assert len(builds) == 2


def test_trajectory_rejects_unordered_times():
    params = PhysicalParams(omega=1.0, nu=50.0, eta_ld=0.05)
    state = _initial_binomial(2, 4)
    with pytest.raises(ValueError, match="non-decreasing"):
        ground_population_trajectory(state, params, 3, np.array([2.0, 1.0]))


def _stepped_ground_populations(state, params, order, times):
    """Reference for the period map: one state vector stepped through every
    drive period in turn, on the same aligned RK4 grid."""
    h = LambDickeHamiltonian(params, order, state.cutoff_a, state.cutoff_b)
    period = 2.0 * math.pi / params.nu
    steps = math.ceil(period / h.stability_dt())
    y = _flatten(state)
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
        final = propagate_lamb_dicke(state, params, 3, float(t))
        assert final.ground_population() == pytest.approx(reference, abs=1e-9)


def test_period_map_is_unitary_to_integration_error():
    params = PhysicalParams(omega=1.0, nu=50.0, eta_ld=0.05)
    h = LambDickeHamiltonian(params, 3, 4, 4)
    period_map = one_period_map(h)
    defect = np.max(np.abs(period_map.conj().T @ period_map - np.eye(len(period_map))))
    assert defect <= 1e-10


def test_period_grid_takes_101_steps_at_nu_50():
    # T / dt is 100.00000000000001 here; the validate battery's numbers rest
    # on this grid, so a change to it must be deliberate
    h = LambDickeHamiltonian(PhysicalParams(omega=1.0, nu=50.0, eta_ld=0.05), 3, 5, 5)
    assert _period_grid(h) == (0.12566370614359174, 101)


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
