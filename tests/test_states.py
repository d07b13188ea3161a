import numpy as np
import pytest

from ionparity import PhysicalParams, TwoModeState, VibronicState


def fock_grid(n_a: int, n_b: int, cutoff_a: int, cutoff_b: int) -> np.ndarray:
    """Amplitude grid of the basis state |n_a, n_b>."""
    grid = np.zeros((cutoff_a + 1, cutoff_b + 1), dtype=np.complex128)
    grid[n_a, n_b] = 1.0
    return grid


def test_vacuum_fock_pair():
    state = TwoModeState(fock_grid(0, 0, 2, 2))
    assert state.amplitudes[0, 0] == 1.0
    assert state.squared_norm() == 1.0
    assert np.count_nonzero(state.amplitudes) == 1


def test_basis_fock_pair():
    state = TwoModeState(fock_grid(2, 1, 2, 2))
    assert state.amplitudes[2, 1] == 1.0
    assert (state.cutoff_a, state.cutoff_b) == (2, 2)
    assert state.squared_norm() == 1.0


def test_amplitude_grid_is_readonly():
    state = TwoModeState(fock_grid(1, 1, 2, 2))
    with pytest.raises(ValueError):
        state.amplitudes[0, 0] = 1.0


def test_grid_rejects_non_finite():
    grid = np.zeros((2, 2), dtype=complex)
    grid[0, 0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        TwoModeState(grid)


def test_vibronic_state_totals():
    minus = TwoModeState(fock_grid(1, 1, 2, 2))
    plus = TwoModeState(np.zeros((3, 3)))
    state = VibronicState(minus, plus)
    assert state.total_squared_norm() == pytest.approx(1.0)
    assert state.ground_population() == pytest.approx(1.0)


def test_vibronic_state_requires_matching_grids():
    with pytest.raises(ValueError, match="cutoffs"):
        VibronicState(TwoModeState(fock_grid(0, 0, 2, 2)), TwoModeState(np.zeros((2, 2))))


def test_physical_params_positivity():
    with pytest.raises(ValueError, match="g"):
        PhysicalParams(g=-1.0)
    with pytest.raises(ValueError, match="nu"):
        PhysicalParams(nu=0.0)
    with pytest.raises(ValueError, match="omega"):
        PhysicalParams(omega=-1.0)
    # zero drive and zero Lamb-Dicke parameter are valid limits
    PhysicalParams(omega=0.0, nu=10.0, eta_ld=0.0)


@pytest.mark.parametrize("name", ["g", "nu", "omega", "eta_ld"])
@pytest.mark.parametrize("value", [np.inf, np.nan])
def test_physical_params_reject_non_finite(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be finite and "):
        PhysicalParams(**{name: value})


def test_physical_params_consistency_rule():
    omega, eta = 2.0e7, 0.05
    g = omega * eta**2 * np.exp(-(eta**2) / 2.0)
    PhysicalParams(g=g, omega=omega, eta_ld=eta)  # consistent triple accepted
    with pytest.raises(ValueError, match="inconsistent"):
        PhysicalParams(g=1.01 * g, omega=omega, eta_ld=eta)


def test_effective_coupling_value_and_requirements():
    params = PhysicalParams(omega=1.0, eta_ld=0.05)
    assert params.effective_coupling() == pytest.approx(
        0.05**2 * np.exp(-(0.05**2) / 2.0), rel=1e-15
    )
    with pytest.raises(ValueError, match="requires"):
        PhysicalParams(g=1.0).effective_coupling()
