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
from .polarization import (PAULI, _physical_state, check_density, correlation_tensor,
                           density_to_stokes)

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
_CHUNK = 4096  # paths per block of the correlated mode's coherency Gram matrix


@dataclass(frozen=True)
class KrausEnsemble:
    """Weighted ensemble of Jones matrices defining a (sub-)CPTP channel.

    Attributes
    ----------
    weights : (K,) float array, nonnegative, summing to 1.
    jones : (K, 2, 2) complex array of per-realization Jones matrices.

    Both are read-only views of the given arrays.  The constructor builds
    the unnormalized Mueller matrix sum_k M(U_k) once, for every mode but
    the correlated one; its row 0 holds the Pauli coefficients of
    sum_k U_k^dagger U_k, whose largest eigenvalue M00 + |(M01, M02, M03)|
    may not exceed 1.
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
        m = _mueller(self.kraus())
        m.flags.writeable = False
        object.__setattr__(self, "_raw_mueller", m)
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


def _mueller(u):
    """Unnormalized Mueller matrix sum_k M(U_k) of Kraus operators u (K, 2, 2), from
    the coherency summed over k."""
    c = np.einsum("kab,kcd->acbd", u, u.conj(), optimize=True)
    return (c.reshape(-1, 16) @ _COHERENCY_TO_MUELLER.T).real.reshape(4, 4)


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
    Returns (rho_out, transmittance) with rho_out renormalized to trace 1
    and transmittance the pre-normalization trace.
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
    Returns (rho_out, transmittance).
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
    matrices, which equals Re(Phi G Phi^T) for the coherency-to-Mueller map
    Phi and the Gram matrix G = sum_k c_k^T c_k of the coherency rows
    c_k = sqrt(w_k) vec(J_k (x) J_k*), accumulated over chunks of paths.  A
    lossless ensemble reports transmittance 1, however many paths it has.
    This differs from the independent mode for multi-element ensembles (a
    correlated Pauli ensemble leaves the Bell state untouched, for instance)
    and is provided as the alternative microscopic model.  Returns
    (rho_out, transmittance).
    """
    k = correlation_tensor(rho)
    # c_k is vec(u_k (x) u_k*) for u_k = w_k^(1/4) J_k.
    u = np.sqrt(np.sqrt(np.maximum(ch.weights, 0.0)))[:, None, None] * ch.jones
    gram = np.zeros((16, 16), dtype=complex)
    for start in range(0, len(u), _CHUNK):
        chunk = u[start:start + _CHUNK]
        c = (chunk[:, :, None, :, None] * chunk.conj()[:, None, :, None, :]).reshape(-1, 16)
        gram += c.T @ c
    s = (_COHERENCY_TO_MUELLER @ gram @ _COHERENCY_TO_MUELLER.T).real
    return _output_state(np.einsum("iajb,ab->ij", s.reshape(4, 4, 4, 4), k))


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
    """Evolve a correlation tensor through the congruence K_out = M K_in M^T."""
    m = np.asarray(m, dtype=float)
    k_in = np.asarray(k_in, dtype=float)
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
    if m.min() < 0 or m.max() > 1:
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
    """Scale a Mueller matrix so that M_00 = 1."""
    m = np.asarray(m, dtype=float)
    if m[0, 0] <= 0:
        raise ValueError("Mueller matrix must have M00 > 0")
    return m / m[0, 0]


def mueller_maps_physical(m, n_samples=100, seed=0, tol=1e-10) -> bool:
    """Check that M maps sampled physical Stokes vectors inside the DoP ball.

    Samples fully polarized states uniformly on the sphere and verifies the
    output degree of polarization never exceeds 1 + tol.  This tests Stokes
    positivity on sampled pure states, not complete positivity: the
    transpose map diag(1, 1, 1, -1) passes, although its Cloude coherency
    matrix has the eigenvalue -1.
    """
    m = np.asarray(m, dtype=float)
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(n_samples, 3))
    v /= np.linalg.norm(v, axis=1)[:, None]
    s = np.column_stack([np.ones(n_samples), v])
    out = s @ m.T
    dop = np.linalg.norm(out[:, 1:], axis=1) / out[:, 0]
    return bool(dop.max() <= 1 + tol)
