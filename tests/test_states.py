import dataclasses

import numpy as np
import pytest

from ionparity import Drive, TwoModeState
from ionparity.states import effective_coupling


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


@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
def test_grid_rejects_an_empty_axis(shape):
    # an empty grid has cutoff -1 and norm 0, which a norm-drift guard cannot see
    with pytest.raises(ValueError, match="non-empty"):
        TwoModeState(np.zeros(shape))


DRIVE_FIELDS = {"omega": 1.0, "nu": 50.0, "eta_ld": 0.05, "expansion_order": 3}


@pytest.mark.parametrize(
    "name, value",
    [("omega", -1.0), ("omega", np.inf), ("omega", np.nan), ("nu", 0.0), ("nu", -50.0),
     ("nu", np.inf), ("nu", np.nan), ("eta_ld", -0.1), ("eta_ld", 1.0), ("eta_ld", np.nan),
     ("expansion_order", 1)],
)
def test_drive_rejects_each_bad_field_under_its_name(name, value):
    with pytest.raises(ValueError, match=f"^{name} "):
        Drive(**{**DRIVE_FIELDS, name: value})


def test_drive_accepts_zero_drive_and_zero_lamb_dicke_parameter():
    # zero drive amplitude and zero Lamb-Dicke parameter are valid limits
    drive = Drive(omega=0.0, nu=10.0, eta_ld=0.0, expansion_order=2)
    assert drive.coupling == 0.0


def test_drive_fields_are_required_and_frozen():
    with pytest.raises(TypeError):
        Drive(omega=1.0, nu=50.0, eta_ld=0.05)
    drive = Drive(**DRIVE_FIELDS)
    with pytest.raises(dataclasses.FrozenInstanceError):
        drive.nu = 25.0


def test_effective_coupling_value():
    assert effective_coupling(1.0, 0.05) == pytest.approx(
        0.05**2 * np.exp(-(0.05**2) / 2.0), rel=1e-15
    )
    assert effective_coupling(2.0e7, 0.0) == 0.0
    assert Drive(**DRIVE_FIELDS).coupling == effective_coupling(1.0, 0.05)
