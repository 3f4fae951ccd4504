"""Entanglement and mixedness metrics of two-photon states.

Covers the observables tracked against depolarization strength:
concurrence, purity, dephasing strength, and von Neumann entropy, plus
the closed-form output purities of the one-photon (OPP) and two-photon
(TPP) polarimetry configurations and their sensitivities.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .polarization import PAULI, _real, check_density

__all__ = [
    "MetricsReport",
    "purity",
    "tensor_purity",
    "concurrence",
    "von_neumann_entropy",
    "dephasing_strength",
    "purity_closed_form",
    "purity_sensitivity",
    "metrics_report",
]


@dataclass(frozen=True)
class MetricsReport:
    """Scalar metrics of a channel output state.

    ``dephasing`` is None when no reference input state was supplied or the
    input carries no HV/VH coherence.
    """

    concurrence: float
    purity: float
    entropy: float
    dephasing: Optional[float] = None

    def as_dict(self) -> dict:
        return {
            "concurrence": self.concurrence,
            "purity": self.purity,
            "entropy": self.entropy,
            "dephasing": self.dephasing,
        }


def purity(rho) -> float:
    """Return Tr(rho^2)."""
    rho = check_density(rho)
    return float(np.einsum("ab,ba->", rho, rho).real)


def tensor_purity(k) -> float:
    """Purity computed from a correlation tensor, (1/4) sum_ij K_ij^2.

    Equal to Tr(rho^2) for the corresponding two-photon state; kept as an
    independent route for cross-checking.  ``k`` must be a finite 4x4 array
    (ValueError).
    """
    k = _real(k, (4, 4), "correlation tensor")
    return float(0.25 * np.sum(k * k))


def concurrence(rho) -> float:
    """Wootters concurrence of a two-qubit state.

    Uses the spin-flip rho_tilde = (s3 (x) s3) rho* (s3 (x) s3) with s3 the
    circular (R/L) Pauli, C = max(0, l1 - l2 - l3 - l4) where l_i are the
    decreasing square roots of the eigenvalues of rho rho_tilde.
    """
    rho = check_density(rho, dim=4)
    flip = np.kron(PAULI[3], PAULI[3])
    rho_tilde = flip @ rho.conj() @ flip
    lam = np.linalg.eigvals(rho @ rho_tilde).real
    lam = np.sqrt(np.clip(lam, 0.0, None))
    lam.sort()
    return float(max(0.0, lam[3] - lam[2] - lam[1] - lam[0]))


def von_neumann_entropy(rho) -> float:
    """Base-2 von Neumann entropy -sum l log2 l with 0 log 0 = 0."""
    rho = check_density(rho)
    lam = np.linalg.eigvalsh(rho)
    lam = np.clip(lam, 0.0, None)
    nz = lam[lam > 0]
    return float(-np.sum(nz * np.log2(nz)) + 0.0)  # +0.0 avoids -0.0 output


def dephasing_strength(rho_out, rho_in) -> float:
    """Normalized loss of the HV/VH coherence, D = 1 - |c_out| / |c_in|.

    c is the <HV|rho|VH> matrix element, the coherence that defines the
    Bell state |Psi+>.  Clamped to [0, 1].  Raises ValueError when the
    input state carries no such coherence.
    """
    rho_out = check_density(rho_out, dim=4)
    rho_in = check_density(rho_in, dim=4)
    c_in = abs(rho_in[1, 2])
    if c_in < 1e-15:
        raise ValueError("dephasing undefined for this input")
    return float(np.clip(1.0 - abs(rho_out[1, 2]) / c_in, 0.0, 1.0))


def _check_mode(mode) -> str:
    mode = str(mode).lower()
    if mode not in ("opp", "tpp"):
        raise ValueError("mode must be 'opp' or 'tpp'")
    return mode


def purity_closed_form(m11, m22, m33, mode) -> float:
    """Closed-form output purity for a Bell input through diag(1, m11, m22, m33),
    for finite m11, m22, m33 (ValueError otherwise).

    OPP: (1 + m11^2 + m22^2 + m33^2) / 4.
    TPP: (1 + m11^4 + m22^4 + m33^4) / 4.
    """
    mode = _check_mode(mode)
    m = _real([m11, m22, m33], (3,), "m11, m22, m33")
    power = 2 if mode == "opp" else 4
    return float((1 + np.sum(m**power)) / 4)


def purity_sensitivity(m, dm_deta, mode) -> float:
    """Derivative of the isotropic closed-form purity with respect to eta, for
    finite m and dm_deta (ValueError otherwise).

    OPP: (3/2) m dm/deta.  TPP: 3 m^3 dm/deta.
    """
    mode = _check_mode(mode)
    _real([m, dm_deta], (2,), "m, dm_deta")
    if mode == "opp":
        return float(1.5 * m * dm_deta)
    return float(3.0 * m**3 * dm_deta)


def metrics_report(rho_out, rho_in=None) -> MetricsReport:
    """Bundle concurrence, purity, entropy, and (if rho_in is coherent) dephasing."""
    try:
        dep = None if rho_in is None else dephasing_strength(rho_out, rho_in)
    except ValueError:  # rho_in carries no HV/VH coherence
        dep = None
    return MetricsReport(
        concurrence=concurrence(rho_out),
        purity=purity(rho_out),
        entropy=von_neumann_entropy(rho_out),
        dephasing=dep,
    )
