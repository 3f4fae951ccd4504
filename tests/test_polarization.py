"""Conventions and conversions among Stokes vectors, densities, and tensors."""

import numpy as np
import pytest

import qpol2
from qpol2 import (
    PAULI,
    UnphysicalStateError,
    bell_state,
    check_density,
    correlation_tensor,
    degree_of_polarization,
    density_to_stokes,
    normalize_stokes,
    stokes_to_density,
    tensor_to_density,
)
from conftest import K_BELL, random_density, random_product_density, random_stokes


def test_pauli_basis_is_orthogonal():
    gram = np.einsum("iab,jba->ij", PAULI, PAULI)
    assert np.allclose(gram, 2 * np.eye(4), atol=1e-15)


def test_pauli_ordering_matches_analyzer_states():
    # sigma_1 diagonalizes H/V, sigma_2 the diagonal basis, sigma_3 circular.
    h = np.array([1, 0], dtype=complex)
    d = np.array([1, 1], dtype=complex) / np.sqrt(2)
    r = np.array([1, 1j], dtype=complex) / np.sqrt(2)
    assert np.isclose(h.conj() @ PAULI[1] @ h, 1.0)
    assert np.isclose(d.conj() @ PAULI[2] @ d, 1.0)
    assert np.isclose(r.conj() @ PAULI[3] @ r, 1.0)


def test_stokes_to_density_canonical_states():
    assert np.allclose(stokes_to_density([1, 1, 0, 0]), np.diag([1.0, 0.0]))
    assert np.allclose(stokes_to_density([1, -1, 0, 0]), np.diag([0.0, 1.0]))
    assert np.allclose(stokes_to_density([1, 0, 1, 0]), np.full((2, 2), 0.5))
    assert np.allclose(
        stokes_to_density([1, 0, 0, 1]), np.array([[0.5, -0.5j], [0.5j, 0.5]])
    )
    assert np.allclose(stokes_to_density([1, 0, 0, 0]), np.eye(2) / 2)


def test_stokes_density_roundtrip():
    for seed in range(30):
        rng = np.random.default_rng(seed)
        s = random_stokes(rng)
        assert np.allclose(density_to_stokes(stokes_to_density(s)), s, atol=1e-14)


def test_stokes_to_density_normalizes_with_warning():
    with pytest.warns(UserWarning):
        rho = stokes_to_density([2.0, 2.0, 0.0, 0.0])
    assert np.allclose(rho, np.diag([1.0, 0.0]))


def test_stokes_to_density_rejects_overpolarized():
    with pytest.raises(UnphysicalStateError):
        stokes_to_density([1.0, 0.9, 0.9, 0.0])


def test_normalize_stokes_requires_positive_intensity():
    with pytest.raises(UnphysicalStateError):
        normalize_stokes([0.0, 0.0, 0.0, 0.0])
    assert np.allclose(normalize_stokes([2.0, 1.0, 0.0, 0.0]), [1.0, 0.5, 0.0, 0.0])


def test_degree_of_polarization():
    assert degree_of_polarization([1, 1, 0, 0]) == 1.0
    assert degree_of_polarization([1, 0, 0, 0]) == 0.0
    assert np.isclose(degree_of_polarization([2, 0.6, 0.8, 0.0]), 0.5)
    for s0 in (0.0, -0.0, -1.0):  # no division warning, no negative degree
        with pytest.raises(UnphysicalStateError, match="S0 > 0"):
            degree_of_polarization([s0, 0.5, 0.0, 0.0])


def test_bell_state_density():
    rho = bell_state()
    expected = np.zeros((4, 4))
    expected[1, 1] = expected[2, 2] = expected[1, 2] = expected[2, 1] = 0.5
    assert np.allclose(rho, expected, atol=1e-15)


def test_bell_correlation_tensor_exact():
    k = correlation_tensor(bell_state())
    assert np.abs(k - K_BELL).max() < 1e-15  # machine precision


def test_product_state_tensor_is_outer_product():
    # K_ij of a product state factorizes into the two one-photon Stokes vectors.
    for seed in range(20):
        rng = np.random.default_rng(seed)
        sa = random_stokes(rng, dop=1.0)
        sb = random_stokes(rng, dop=1.0)
        rho = np.kron(stokes_to_density(sa), stokes_to_density(sb))
        assert np.allclose(correlation_tensor(rho), np.outer(sa, sb), atol=1e-13)


def test_tensor_roundtrip_on_random_states():
    for seed in range(30):
        rng = np.random.default_rng(seed)
        rho = random_density(rng) if seed % 2 else random_product_density(rng)
        k = correlation_tensor(rho)
        assert abs(k[0, 0] - 1.0) < 1e-14
        assert np.allclose(tensor_to_density(k), rho, atol=1e-13)


def test_tensor_to_density_requires_unit_k00():
    with pytest.raises(UnphysicalStateError):
        tensor_to_density(2 * K_BELL)


def test_tensor_to_density_warns_on_unphysical_tensor():
    # Perfect correlation in all three bases at once lies outside the Bell
    # tetrahedron; the resulting matrix (SWAP/2) has eigenvalue -1/2.
    with pytest.warns(UserWarning):
        tensor_to_density(np.eye(4))


def test_check_density_validations():
    with pytest.raises(UnphysicalStateError):
        check_density(np.array([[1.0, 0.5], [0.0, 0.0]]))  # not Hermitian
    with pytest.raises(UnphysicalStateError):
        check_density(np.eye(2))  # trace 2
    with pytest.raises(UnphysicalStateError):
        check_density(np.diag([1.5, -0.5]))  # negative eigenvalue
    with pytest.raises(UnphysicalStateError):
        check_density(np.eye(4) / 4, dim=2)  # wrong dimension
    with pytest.raises(UnphysicalStateError):
        check_density(np.ones((2, 3)))  # not square
    for value in (np.nan, np.inf, -np.inf, complex(0.0, np.nan)):
        for dim in (2, 4):  # not a LinAlgError or a warning
            rho = np.eye(dim, dtype=complex) / dim
            rho[0, 1] = value
            with pytest.raises(UnphysicalStateError, match="finite"):
                check_density(rho)
    rho = check_density(np.eye(2) / 2)
    assert rho.dtype == complex


def test_correlation_tensor_is_real_valued():
    for seed in range(10):
        rho = random_density(np.random.default_rng(seed))
        k = correlation_tensor(rho)
        assert k.dtype == float
        assert np.all(np.abs(k) <= 1 + 1e-12)


def test_maximally_mixed_tensor():
    k = correlation_tensor(np.eye(4) / 4)
    expected = np.zeros((4, 4))
    expected[0, 0] = 1.0
    assert np.allclose(k, expected, atol=1e-15)
