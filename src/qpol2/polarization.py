"""Polarization conventions and conversions.

Fixes the Stokes/Pauli correspondence used everywhere else and converts
among Stokes vectors, density matrices, and two-photon correlation
tensors.

Convention: the computational basis is |H> = (1, 0), |V> = (0, 1).
sigma_1 = diag(1, -1) is the H/V Pauli so S1 = +1 is horizontal,
sigma_2 = [[0, 1], [1, 0]] is the D/A (diagonal) Pauli, and
sigma_3 = [[0, -i], [i, 0]] is the R/L (circular) Pauli.  This is the
unique ordering for which the Bell state (|HV> + |VH>)/sqrt(2) has the
diagonal correlation tensor diag(1, -1, 1, 1).
"""

import warnings

import numpy as np

from .exceptions import UnphysicalStateError

__all__ = [
    "PAULI",
    "HERMITICITY_TOL",
    "TRACE_TOL",
    "PSD_TOL",
    "stokes_to_density",
    "density_to_stokes",
    "correlation_tensor",
    "tensor_to_density",
    "degree_of_polarization",
    "normalize_stokes",
    "check_density",
    "bell_state",
]

#: Pauli basis ordered to match Stokes components (sigma_0 = identity).
PAULI = np.array(
    [
        [[1, 0], [0, 1]],
        [[1, 0], [0, -1]],
        [[0, 1], [1, 0]],
        [[0, -1j], [1j, 0]],
    ],
    dtype=complex,
)

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_TOL = -1e-10

# Two-photon Pauli products sigma_i (x) sigma_j, flattened over (i, j).
_PAULI2 = np.array([np.kron(a, b) for a in PAULI for b in PAULI]).reshape(4, 4, 4, 4)


def degree_of_polarization(s) -> float:
    """Return sqrt(S1^2 + S2^2 + S3^2) / S0 for a Stokes vector."""
    s = np.asarray(s, dtype=float)
    return float(np.linalg.norm(s[1:]) / s[0])


def normalize_stokes(s) -> np.ndarray:
    """Scale a Stokes vector so that S0 = 1."""
    s = np.asarray(s, dtype=float)
    if s[0] <= 0:
        raise UnphysicalStateError("Stokes vector must have S0 > 0")
    return s / s[0]


def stokes_to_density(s) -> np.ndarray:
    """Build the 2x2 density matrix (1/2)(I + S.sigma) of a Stokes vector.

    A non-normalized input (S0 != 1) is normalized first with a warning.
    A degree of polarization above 1 is rejected as unphysical.
    """
    s = np.asarray(s, dtype=float)
    if abs(s[0] - 1.0) > 1e-12:
        warnings.warn("Stokes vector not normalized; dividing by S0", stacklevel=2)
        s = normalize_stokes(s)
    if degree_of_polarization(s) > 1 + 1e-12:
        raise UnphysicalStateError("degree of polarization exceeds 1")
    return _pauli_expansion(s)


def density_to_stokes(rho) -> np.ndarray:
    """Return S_i = Tr[rho sigma_i] for a one-photon density matrix."""
    rho = check_density(rho, dim=2)
    return np.einsum("iab,ba->i", PAULI, rho).real


def correlation_tensor(rho) -> np.ndarray:
    """Return the 4x4 tensor K_ij = Tr[rho (sigma_i (x) sigma_j)]."""
    rho = check_density(rho, dim=4)
    return np.einsum("ijab,ba->ij", _PAULI2, rho).real


def tensor_to_density(k) -> np.ndarray:
    """Invert a correlation tensor to rho = (1/4) sum_ij K_ij sigma_i (x) sigma_j.

    The map is a linear bijection onto Hermitian trace-1 operators, so the
    result is not guaranteed positive; a tensor whose density matrix has an
    eigenvalue below the PSD tolerance is flagged with a warning and the
    caller decides how to handle it.
    """
    k = np.asarray(k, dtype=float)
    if k.shape != (4, 4):
        raise ValueError("correlation tensor must be 4x4")
    if abs(k[0, 0] - 1.0) > 1e-10:
        raise UnphysicalStateError("correlation tensor must have K00 = 1")
    rho = _pauli_expansion(k)
    if np.linalg.eigvalsh(rho).min() < PSD_TOL:
        warnings.warn("unphysical tensor: density matrix has a negative eigenvalue",
                      stacklevel=2)
    return rho


def _pauli_expansion(s) -> np.ndarray:
    """Stokes vector or correlation tensor s expanded in (two-photon) Pauli products."""
    return (0.5 * np.einsum("i,iab->ab", s, PAULI) if s.ndim == 1
            else 0.25 * np.einsum("ij,ijab->ab", s, _PAULI2))


def _physical_state(s) -> np.ndarray:
    """Density matrix of a Stokes vector or correlation tensor with first entry 1,
    with negative eigenvalues clipped to 0 and the trace restored to 1."""
    lam, vec = np.linalg.eigh(_pauli_expansion(s))
    lam = np.clip(lam, 0.0, None)
    lam /= lam.sum()
    return (vec * lam) @ vec.conj().T


def check_density(rho, dim=None) -> np.ndarray:
    """Validate Hermiticity, unit trace, and positivity of a density matrix.

    Returns the matrix as a complex ndarray; raises UnphysicalStateError on
    violation of any invariant.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise UnphysicalStateError("density matrix must be square")
    if dim is not None and rho.shape[0] != dim:
        raise UnphysicalStateError(f"expected a {dim}x{dim} density matrix")
    if np.abs(rho - rho.conj().T).max() > HERMITICITY_TOL:
        raise UnphysicalStateError("density matrix is not Hermitian")
    if abs(np.trace(rho).real - 1.0) > TRACE_TOL or abs(np.trace(rho).imag) > TRACE_TOL:
        raise UnphysicalStateError("density matrix trace differs from 1")
    if np.linalg.eigvalsh(rho).min() < PSD_TOL:
        raise UnphysicalStateError("density matrix has a negative eigenvalue")
    return rho


def bell_state() -> np.ndarray:
    """Density matrix of |Psi+> = (|HV> + |VH>)/sqrt(2)."""
    psi = np.zeros(4, dtype=complex)
    psi[1] = psi[2] = 1 / np.sqrt(2)
    return np.outer(psi, psi.conj())
