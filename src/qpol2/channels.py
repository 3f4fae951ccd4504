"""Kraus/Jones channel representations and the correlation-tensor congruence.

A channel is a weighted ensemble of 2x2 Jones matrices; the Kraus
operators are U_k = sqrt(w_k) J_k.  The same ensemble yields a Mueller
matrix M_ij = (1/2) Tr[sigma_i sum_k U_k sigma_j U_k^dagger], computed from
the coherency sum_k U_k (x) U_k*.  Every channel mode applies it: linearly
when one photon crosses (S_out = M S_in, K_out = M K_in), quadratically
when both cross independent realizations (K_out = M K_in M^T), and through
the second moment sum_k w_k M(J_k) (x) M(J_k) when both cross the same one.
"""

from dataclasses import dataclass

import numpy as np

from .exceptions import ChannelError, NotCompletelyPositiveError, UnphysicalStateError
from .polarization import (PAULI, _physical_state, _real, check_density,
                           correlation_tensor, density_to_stokes)

__all__ = [
    "KrausEnsemble",
    "apply_one_photon",
    "apply_two_photon_independent",
    "apply_two_photon_correlated",
    "mueller_from_kraus",
    "propagate_tensor",
    "kraus_from_diagonal_mueller",
    "compose",
    "normalize_mueller",
    "mueller_maps_physical",
]

_WEIGHT_SUM_TOL = 1e-10
_TRACE_COND_TOL = 1e-8
_CHUNK = 2048  # paths per block of the one pass that builds both coherency moments


@dataclass(frozen=True)
class KrausEnsemble:
    """Weighted ensemble of Jones matrices defining a (sub-)CPTP channel.

    Attributes
    ----------
    weights : (K,) float array, nonnegative, summing to 1.
    jones : (K, 2, 2) complex array of per-realization Jones matrices.

    Both are read-only views of the given arrays.  The constructor builds
    both moments every channel mode reads, in one pass over the paths: the
    unnormalized Mueller matrix sum_k M(U_k) and the correlated mode's
    second moment (see ``_moments``), both read-only.  Row 0 of the Mueller
    matrix holds the Pauli coefficients of sum_k U_k^dagger U_k, whose
    largest eigenvalue M00 + |(M01, M02, M03)| may not exceed 1.
    """

    weights: np.ndarray
    jones: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        j = np.asarray(self.jones, dtype=complex)
        if w.ndim != 1 or j.shape != (w.size, 2, 2):
            raise ChannelError("ensemble needs weights (K,) and jones (K, 2, 2)")
        if w.size == 0:
            raise ChannelError("ensemble needs at least one path")
        if not (np.isfinite(w).all() and np.isfinite(j).all()):
            raise ChannelError("ensemble weights and Jones entries must be finite")
        if w.min() < -1e-12:
            raise ChannelError("ensemble weights must be nonnegative")
        if abs(w.sum() - 1.0) > _WEIGHT_SUM_TOL:
            raise ChannelError("ensemble weights must sum to 1")
        w, j = w.view(), j.view()
        w.flags.writeable = j.flags.writeable = False
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "jones", j)
        m, s = _moments(w, j)
        m.flags.writeable = s.flags.writeable = False
        object.__setattr__(self, "_raw_mueller", m)
        object.__setattr__(self, "_second_moment", s)
        if m[0, 0] + np.linalg.norm(m[0, 1:]) > 1 + _TRACE_COND_TOL:
            raise ChannelError("sum_k U_k^dagger U_k exceeds the identity")

    def kraus(self) -> np.ndarray:
        """Return the Kraus operators U_k = sqrt(w_k) J_k as a (K, 2, 2) array;
        a weight within the tolerance below 0 counts as 0."""
        return np.sqrt(np.maximum(self.weights, 0.0))[:, None, None] * self.jones

    def kraus_gram(self) -> np.ndarray:
        """Return sum_k U_k^dagger U_k (identity for an exactly CPTP channel),
        read off row 0 of the Mueller matrix as sum_j M_0j sigma_j."""
        return np.einsum("j,jab->ab", self._raw_mueller[0], PAULI)

    @classmethod
    def identity(cls) -> "KrausEnsemble":
        return cls(np.array([1.0]), np.eye(2, dtype=complex)[None])

    @classmethod
    def from_unitary(cls, v) -> "KrausEnsemble":
        return cls(np.array([1.0]), np.asarray(v, dtype=complex)[None])

    @classmethod
    def pauli(cls, weights) -> "KrausEnsemble":
        """Pauli (twirl) channel with the given four weights."""
        return cls(np.asarray(weights, dtype=float), PAULI.copy())


# With row-major vec, Tr[sigma_i X] = T[i] . vec(X) and vec(U X U^dagger) = C vec(X)
# for the coherency C = U (x) U*, so M(U) = (1/2) Re(T C T^H), which is the map
# (1/2) (T (x) T*) on vec(C) (Cloude, Optik 75, 26, 1986).  Row i of T is vec(sigma_i^T).
_T = np.array([s.T.ravel() for s in PAULI])
_COHERENCY_TO_MUELLER = 0.5 * np.kron(_T, _T.conj())

# For v = vec(U), vec(C) holds v_i v_j* at _VEC[i, j]: read through _VEC it is the
# Hermitian v v^H, whose 16 real coordinates are h = (|v_i|^2, Re v_i v_j*, Im v_i v_j*
# for i < j).  vec M(U) = Re(_COHERENCY_TO_MUELLER @ vec(C)) is the real map
# _HERMITIAN_TO_MUELLER @ h.
_IU, _JU = np.triu_indices(4, 1)
_VEC = np.arange(16).reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)
_upper = _COHERENCY_TO_MUELLER[:, _VEC[_IU, _JU]]
_lower = _COHERENCY_TO_MUELLER[:, _VEC[_JU, _IU]]
_HERMITIAN_TO_MUELLER = np.hstack([_COHERENCY_TO_MUELLER[:, np.diag(_VEC)],
                                   _upper + _lower, 1j * (_upper - _lower)]).real
del _upper, _lower


def _moments(weights, jones):
    """Return the unnormalized Mueller matrix sum_k w_k M(J_k) (4x4) and the second
    moment S = sum_k w_k vec M(J_k) vec M(J_k)^T (16x16), in one pass over the paths.

    For u_k = w_k^(1/4) J_k, vec M(u_k) = sqrt(w_k) vec M(J_k) = R h_k with
    R = _HERMITIAN_TO_MUELLER and h_k the 16 real coordinates of vec(u_k) vec(u_k)^H,
    so the mean is R sum_k sqrt(w_k) h_k and S = R (sum_k h_k h_k^T) R^T.  Both sums
    run over blocks of _CHUNK paths; a weight within the tolerance below 0 counts as 0.
    """
    root = np.sqrt(np.maximum(weights, 0.0))
    q = np.sqrt(root)
    mean, gram = np.zeros(16), np.zeros((16, 16))
    for start in range(0, len(q), _CHUNK):
        block = slice(start, start + _CHUNK)
        # Column k of v is vec(u_k), row-major; each row of v is contiguous.
        v = np.multiply(jones[block].reshape(-1, 4).T, q[block], order="C")
        vc = v.conj()
        p = v[_IU] * vc[_JU]
        h = np.concatenate([(v * vc).real, p.real, p.imag])
        mean += h @ root[block]
        gram += h @ h.T
    r = _HERMITIAN_TO_MUELLER
    return (r @ mean).reshape(4, 4), r @ gram @ r.T


def _output_state(out):
    """(rho, transmittance) of an unnormalized output Stokes vector or tensor, with
    rho projected onto the physical set as a reconstructed state is."""
    trans = out.flat[0]
    if trans <= 1e-15:
        raise ChannelError("channel annihilates state")
    return _physical_state(out / trans), trans


def apply_one_photon(ch: KrausEnsemble, rho, arm="none"):
    """Apply the channel to one photon; the other arm (if any) is untouched.

    For a 4x4 input, ``arm`` selects which photon traverses the channel
    ("first": K_out = M K_in, or "second": K_out = K_in M^T); this is the
    one-photon-polarimetry configuration.  A 2x2 input gives S_out = M S_in.
    Returns (rho_out, transmittance T), T the pre-normalization trace and
    rho_out renormalized to trace 1, accurate to about 1e-16 / T.
    """
    rho = check_density(rho)
    m = ch._raw_mueller
    if rho.shape == (2, 2):
        return _output_state(m @ density_to_stokes(rho))
    if rho.shape != (4, 4):
        raise UnphysicalStateError("density matrix must be 2x2 or 4x4")
    if arm == "first":
        return _output_state(m @ correlation_tensor(rho))
    if arm == "second":
        return _output_state(correlation_tensor(rho) @ m.T)
    raise ChannelError("two-photon input requires arm='first' or 'second'")


def apply_two_photon_independent(ch: KrausEnsemble, rho):
    """Send both photons through independent realizations of the channel.

    The Kraus sum rho_out ~ sum_{k,l} (U_k (x) U_l) rho (U_k (x) U_l)^dagger
    is the congruence K_out = M K_in M^T in the ensemble's Mueller matrix.
    Returns (rho_out, transmittance T), rho_out accurate to about 1e-16 / T.
    """
    k = correlation_tensor(rho)
    m = ch._raw_mueller
    return _output_state(m @ k @ m.T)


def apply_two_photon_correlated(ch: KrausEnsemble, rho):
    """Send both photons through the same realization of the channel.

    Realization k occurs with probability w_k and applies J_k (x) J_k, so the
    Kraus operators are sqrt(w_k) J_k (x) J_k and the output is the
    per-realization congruence sum K_out = sum_k w_k M(J_k) K_in M(J_k)^T,
    renormalized.  It is computed from the second moment
    S = sum_k w_k M(J_k) (x) M(J_k) (16x16) of the per-path Mueller
    matrices, which the ensemble built with its Mueller matrix (see
    ``_moments``), so this mode reads no path.  A lossless ensemble reports
    transmittance 1, however many paths it has.  This differs from the
    independent mode for multi-element ensembles (a correlated Pauli
    ensemble leaves the Bell state untouched, for instance) and is provided
    as the alternative microscopic model.
    Returns (rho_out, transmittance T), rho_out accurate to about 1e-16 / T.
    """
    k = correlation_tensor(rho)
    s = ch._second_moment.reshape(4, 4, 4, 4)
    return _output_state(np.einsum("iajb,ab->ij", s, k))


def mueller_from_kraus(ch: KrausEnsemble):
    """Return (M, transmittance) for M_ij = (1/2) Tr[sigma_i sum_k U_k sigma_j U_k^dagger].

    M is normalized so that M_00 = 1; the raw M_00 (mean channel
    transmission) is returned separately.
    """
    raw = ch._raw_mueller
    trans = raw[0, 0]
    if trans <= 1e-15:
        raise ChannelError("channel has zero transmittance")
    return raw / trans, trans


def propagate_tensor(m, k_in) -> np.ndarray:
    """Evolve a correlation tensor through the congruence K_out = M K_in M^T.

    ``m`` and ``k_in`` must be finite 4x4 matrices and M00 = 1 (ValueError).
    """
    m, k_in = _real(m, (4, 4), "Mueller matrix"), _real(k_in, (4, 4), "correlation tensor")
    if abs(m[0, 0] - 1.0) > 1e-10:
        raise ValueError("Mueller matrix must be normalized to M00 = 1")
    return m @ k_in @ m.T


def kraus_from_diagonal_mueller(m11, m22, m33) -> KrausEnsemble:
    """Pauli ensemble realizing the depolarizer diag(1, m11, m22, m33).

    The four weights solve the sign system of the Pauli transfer matrix:
    p0 = (1 + m11 + m22 + m33)/4, p1 = (1 + m11 - m22 - m33)/4,
    p2 = (1 - m11 + m22 - m33)/4, p3 = (1 - m11 - m22 + m33)/4.
    All must be nonnegative for the map to be completely positive.
    """
    m = np.array([m11, m22, m33], dtype=float)
    if not (m.min() >= 0 and m.max() <= 1):  # NaN fails both comparisons
        raise ValueError("diagonal entries must lie in [0, 1]")
    signs = np.array(
        [[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], dtype=float
    )
    p = (1 + signs @ m) / 4
    if p.min() < -1e-12:
        raise NotCompletelyPositiveError(
            f"not completely positive: Pauli weights {p.tolist()}"
        )
    p = np.clip(p, 0.0, None)
    return KrausEnsemble.pauli(p / p.sum())


def compose(ch1: KrausEnsemble, ch2: KrausEnsemble) -> KrausEnsemble:
    """Sequential channel: ch2 acts first, then ch1 (Mueller matrices multiply M1 M2)."""
    w = np.outer(ch1.weights, ch2.weights).ravel()
    j = np.einsum("kab,lbc->klac", ch1.jones, ch2.jones).reshape(-1, 2, 2)
    return KrausEnsemble(w, j)


def normalize_mueller(m) -> np.ndarray:
    """Scale a Mueller matrix so that M_00 = 1; anything but a finite 4x4 array, or
    M_00 <= 0, is a ValueError."""
    m = _real(m, (4, 4), "Mueller matrix")
    if m[0, 0] <= 0:
        raise ValueError("Mueller matrix must have M00 > 0")
    return m / m[0, 0]


def _coherency(m) -> np.ndarray:
    """The Cloude coherency H = sum_k vec(U_k) vec(U_k)^dagger (..., 4, 4) of a stack m
    (..., 4, 4) of Mueller matrices divided by M00 (Cloude, Optik 75, 26, 1986).

    _COHERENCY_TO_MUELLER is unitary, so vec(H) is its adjoint times vec(M), reindexed
    from (a, c, b, d) to (a, b), (c, d); for a diagonal M the eigenvalues of H are twice
    the Pauli weights.  One product per matrix rounds a slice as that matrix alone.
    """
    m = np.asarray(m, dtype=float)
    v = (m / m[..., :1, :1]).reshape(m.shape[:-2] + (1, 16))
    return (v @ _COHERENCY_TO_MUELLER.conj())[..., 0, _VEC]


def mueller_maps_physical(m, *, tol=1e-10) -> bool:
    """Check complete positivity: the Cloude coherency ``_coherency(m)`` has no
    eigenvalue below -tol.  M00 <= 0 or a non-finite entry is not physical.
    """
    m = np.asarray(m, dtype=float)
    if m.shape != (4, 4):
        raise ValueError("Mueller matrix must be 4x4")
    if not (np.isfinite(m).all() and m[0, 0] > 0):
        return False
    return bool(np.linalg.eigvalsh(_coherency(m)).min() >= -tol)
