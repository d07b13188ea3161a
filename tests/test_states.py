import numpy as np
import pytest
from hypothesis import given, strategies as st

from ionparity import (
    PhysicalParams,
    TwoModeState,
    VibronicState,
    inner_product,
    make_fock_pair,
)
from ionparity.dynamics import Su2CoherentSpec, build_su2_state


def test_vacuum_fock_pair():
    state = make_fock_pair(0, 0, 2, 2)
    assert state.amplitudes[0, 0] == 1.0
    assert state.squared_norm() == 1.0
    assert np.count_nonzero(state.amplitudes) == 1


def test_basis_fock_pair():
    state = make_fock_pair(2, 1, 2, 2)
    assert state.amplitudes[2, 1] == 1.0
    assert state.norm() == 1.0


def test_fock_pair_rejects_out_of_range():
    with pytest.raises(ValueError, match="outside"):
        make_fock_pair(3, 0, 2, 2)
    with pytest.raises(ValueError):
        make_fock_pair(0, 5, 2, 2)
    with pytest.raises(ValueError):
        make_fock_pair(-1, 0, 2, 2)


@given(
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=0, max_value=4),
)
def test_fock_pairs_orthonormal(na1, nb1, na2, nb2):
    s1 = make_fock_pair(na1, nb1, 4, 4)
    s2 = make_fock_pair(na2, nb2, 4, 4)
    expected = 1.0 if (na1, nb1) == (na2, nb2) else 0.0
    assert inner_product(s1, s2) == expected


def test_inner_product_self_binomial_state():
    # sum of squared binomial weights 2^-N C(N,k) is exactly one
    state = build_su2_state(Su2CoherentSpec(1.0, 2.0), 4, 4)
    assert inner_product(state, state) == pytest.approx(1.0, abs=1e-14)


def test_inner_product_conjugate_linear_first_argument():
    rng = np.random.default_rng(7)
    for _ in range(20):
        a = rng.standard_normal((4, 5)) + 1j * rng.standard_normal((4, 5))
        b = rng.standard_normal((4, 5)) + 1j * rng.standard_normal((4, 5))
        s1, s2 = TwoModeState(a), TwoModeState(b)
        forward = inner_product(s1, s2)
        assert forward == pytest.approx(np.conj(inner_product(s2, s1)), abs=1e-14)
        scaled = TwoModeState((2.0 - 1.5j) * a)
        assert inner_product(scaled, s2) == pytest.approx(
            np.conj(2.0 - 1.5j) * forward, abs=1e-12
        )
        self_overlap = inner_product(s1, s1)
        assert self_overlap.imag == pytest.approx(0.0, abs=1e-14)
        assert self_overlap.real >= 0.0


def test_inner_product_rejects_cutoff_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        inner_product(make_fock_pair(0, 0, 2, 2), make_fock_pair(0, 0, 3, 2))


def test_amplitude_grid_is_readonly():
    state = make_fock_pair(1, 1, 2, 2)
    with pytest.raises(ValueError):
        state.amplitudes[0, 0] = 1.0


def test_grid_rejects_non_finite():
    grid = np.zeros((2, 2), dtype=complex)
    grid[0, 0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        TwoModeState(grid)


def test_vibronic_state_totals():
    minus = make_fock_pair(1, 1, 2, 2)
    plus = TwoModeState(np.zeros((3, 3)))
    state = VibronicState(minus, plus)
    assert state.total_squared_norm() == pytest.approx(1.0)
    assert state.ground_population() == pytest.approx(1.0)
    rho = state.internal_reduced_density()
    assert rho.shape == (2, 2)
    assert rho[0, 0] == pytest.approx(1.0)
    assert rho[1, 1] == pytest.approx(0.0)


def test_vibronic_state_requires_matching_grids():
    with pytest.raises(ValueError, match="cutoffs"):
        VibronicState(make_fock_pair(0, 0, 2, 2), TwoModeState(np.zeros((2, 2))))


def test_physical_params_positivity():
    with pytest.raises(ValueError, match="g"):
        PhysicalParams(g=-1.0)
    with pytest.raises(ValueError, match="nu"):
        PhysicalParams(nu=0.0)
    with pytest.raises(ValueError, match="tau"):
        PhysicalParams(tau=-1e-9)
    # zero drive and zero Lamb-Dicke parameter are valid limits
    PhysicalParams(omega=0.0, nu=10.0, eta_ld=0.0)


@pytest.mark.parametrize("name", ["g", "nu", "omega", "eta_ld", "tau"])
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
