"""Two-photon polarization state tomography.

Simulates coincidence counts over the standard 36-setting product basis
{H, V, D, A, R, L} x {H, V, D, A, R, L} and reconstructs the density
matrix by linear inversion of the correlation tensor followed by
projection onto the physical set.
"""

from dataclasses import dataclass

import numpy as np

from .exceptions import TomographyError
from .polarization import PAULI, _physical_state, check_density

__all__ = [
    "ANALYZERS",
    "SETTING_LABELS",
    "CountRecord",
    "analyzer_stokes",
    "simulate_counts",
    "reconstruct",
    "fidelity",
]

_SQ2 = 1 / np.sqrt(2)

#: Analyzer kets of the six canonical polarization states.
ANALYZERS = {
    "H": np.array([1, 0], dtype=complex),
    "V": np.array([0, 1], dtype=complex),
    "D": np.array([_SQ2, _SQ2], dtype=complex),
    "A": np.array([_SQ2, -_SQ2], dtype=complex),
    "R": np.array([_SQ2, _SQ2 * 1j], dtype=complex),
    "L": np.array([_SQ2, -_SQ2 * 1j], dtype=complex),
}

#: The 36 settings in fixed row-major order over (arm A, arm B).
SETTING_LABELS = [(a, b) for a in "HVDARL" for b in "HVDARL"]


@dataclass(frozen=True)
class CountRecord:
    """One tomographic setting: labels, expected rate, and observed counts."""

    setting_a: str
    setting_b: str
    expected: float
    counts: int
    pairs: int


def analyzer_stokes(label) -> np.ndarray:
    """Stokes vector <psi| sigma_i |psi> of an analyzer ket."""
    ket = ANALYZERS[label]
    return np.einsum("a,iab,b->i", ket.conj(), PAULI, ket).real


def _design_matrix() -> np.ndarray:
    # rate(a, b) = Tr[rho Pa (x) Pb] = (1/4) sum_ij sa_i sb_j K_ij
    rows = [
        0.25 * np.outer(analyzer_stokes(a), analyzer_stokes(b)).ravel()
        for a, b in SETTING_LABELS
    ]
    return np.array(rows)


_DESIGN = _design_matrix()
_DESIGN_ROW = {label: i for i, label in enumerate(SETTING_LABELS)}
# Product kets |a> (x) |b> of the 36 settings, one row each.
_KETS = np.array([np.kron(ANALYZERS[a], ANALYZERS[b]) for a, b in SETTING_LABELS])
# numpy's Poisson sampler rejects a mean above this.
_POISSON_MAX = np.iinfo(np.int64).max - 10 * np.sqrt(np.iinfo(np.int64).max)


def simulate_counts(rho, pairs_per_setting, seed=None, noisy=False):
    """Generate coincidence counts for all 36 settings.

    The expected rate per setting is <ab|rho|ab>; observed counts are
    Poisson(pairs * rate) draws when ``noisy`` and the rounded expectation
    otherwise.  Deterministic for a given seed.  ``pairs_per_setting`` that
    is not finite, below 1 or, when ``noisy``, above numpy's Poisson limit
    (about 9.2e18) is a ValueError.
    """
    rho = check_density(rho, dim=4)
    if not np.isfinite(pairs_per_setting):
        raise ValueError("pairs_per_setting must be finite")
    pairs = int(pairs_per_setting)
    if pairs < 1:
        raise ValueError("pairs_per_setting must be at least 1")
    if noisy and float(pairs) > _POISSON_MAX:
        raise ValueError(f"pairs_per_setting must be at most {_POISSON_MAX:.4g} when noisy")
    rates = np.clip(np.einsum("si,ij,sj->s", _KETS.conj(), rho, _KETS).real, 0.0, 1.0)
    if noisy:
        observed = np.random.default_rng(seed).poisson(pairs * rates)
    else:
        observed = np.rint(pairs * rates)
    return [CountRecord(a, b, float(rate), int(n), pairs)
            for (a, b), rate, n in zip(SETTING_LABELS, rates, observed)]


def reconstruct(counts) -> np.ndarray:
    """Reconstruct a density matrix from tomographic counts.

    Solves the linear least-squares problem for the 16 correlation-tensor
    coefficients from the per-setting rates counts/pairs, then restores
    physicality by clipping negative eigenvalues to zero and renormalizing
    the trace.
    """
    if not counts:
        raise TomographyError("no counts given")
    rows = []
    rates = []
    for rec in counts:
        if rec.pairs <= 0:
            raise TomographyError("every record needs pairs > 0")
        label = (rec.setting_a, rec.setting_b)
        if label not in _DESIGN_ROW:
            raise TomographyError(f"unknown analyzer setting {label}")
        rows.append(_DESIGN_ROW[label])
        rates.append(rec.counts / rec.pairs)
    design = _DESIGN[rows]
    rates = np.array(rates)
    k, _, rank, _ = np.linalg.lstsq(design, rates, rcond=None)
    if rank < 16:
        raise TomographyError("measurement settings do not span the operator space")
    if not np.any(rates > 0):
        raise TomographyError("all counts are zero")
    k = k.reshape(4, 4)
    if k[0, 0] <= 0:
        raise TomographyError("reconstructed intensity is not positive")
    return _physical_state(k / k[0, 0])


def fidelity(rho_a, rho_b) -> float:
    """Uhlmann fidelity (Tr sqrt(sqrt(a) b sqrt(a)))^2 of two density matrices of the
    same dimension (UnphysicalStateError otherwise)."""
    rho_a = check_density(rho_a)
    rho_b = check_density(rho_b, dim=len(rho_a))
    lam, vec = np.linalg.eigh(rho_a)
    sqrt_a = (vec * np.sqrt(np.clip(lam, 0.0, None))) @ vec.conj().T
    inner = sqrt_a @ rho_b @ sqrt_a
    mu = np.linalg.eigvalsh(inner)
    return float(np.sum(np.sqrt(np.clip(mu, 0.0, None))) ** 2)
