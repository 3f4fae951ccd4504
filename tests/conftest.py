"""Shared random-object generators for the test suite.

All helpers take an explicit numpy Generator so that every test controls
its own seeding; none of them keep global state.
"""

import math

import numpy as np

import qpol2

K_BELL = np.diag([1.0, -1.0, 1.0, 1.0])

PAULI_SIGNS = np.array(
    [[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], dtype=float
)

_EYE2 = {"re": np.eye(2).tolist(), "im": np.zeros((2, 2)).tolist()}
_EYE3 = {"re": np.eye(3).tolist(), "im": np.zeros((3, 3)).tolist()}

#: Malformed Kraus JSON "items" lists; each must be a FormatError (CLI exit 2).
MALFORMED_KRAUS_ITEMS = {
    "re_object": [{"w": 1.0, "re": {"a": 1}, "im": np.zeros((2, 2)).tolist()}],
    "w_null": [dict(_EYE2, w=None)],
    "w_string": [dict(_EYE2, w="x")],
    "jones_3x3": [dict(_EYE3, w=1.0)],
    "jones_mixed": [dict(_EYE2, w=0.5), dict(_EYE3, w=0.5)],
    "w_nan": [dict(_EYE2, w=math.nan)],
    "re_inf": [{"w": 1.0, "re": [[math.inf, 0.0], [0.0, 1.0]], "im": _EYE2["im"]}],
    "w_bool": [dict(_EYE2, w=True)],
    "re_bool": [{"w": 1.0, "re": [[True, 0.0], [0.0, 1.0]], "im": _EYE2["im"]}],
    "re_strings": [{"w": 1.0, "re": [["1", "0"], ["0", "1"]], "im": _EYE2["im"]}],
}

#: The maximally mixed two-photon state with its entries written as JSON
#: strings; a FormatError (CLI exit 2), although numpy would parse them.
STRING_DENSITY = {
    "dim": 4,
    "re": [[str(0.25 * (i == j)) for j in range(4)] for i in range(4)],
    "im": [["0.0"] * 4] * 4,
}


def random_density(rng, dim=4):
    """Full-rank random density matrix (Ginibre ensemble)."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_pure_density(rng, dim=4):
    """Haar-random pure-state density matrix."""
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    psi /= np.linalg.norm(psi)
    return np.outer(psi, psi.conj())


def random_product_density(rng):
    """Pure product two-photon state rho_A (x) rho_B."""
    return np.kron(random_pure_density(rng, 2), random_pure_density(rng, 2))


def random_stokes(rng, dop=None):
    """Normalized Stokes vector with the given (or random) degree of polarization."""
    v = rng.normal(size=3)
    v /= np.linalg.norm(v)
    if dop is None:
        dop = rng.uniform(0.0, 1.0)
    return np.concatenate([[1.0], dop * v])


def random_cptp_ensemble(rng, k=3):
    """Exactly trace-preserving Kraus ensemble with k operators.

    Built from a Haar-random isometry so that sum_k U_k^dagger U_k = I to
    machine precision.
    """
    g = rng.normal(size=(2 * k, 2)) + 1j * rng.normal(size=(2 * k, 2))
    v, _ = np.linalg.qr(g)
    ops = v.reshape(k, 2, 2)
    w = np.array([(np.abs(op) ** 2).sum() / 2 for op in ops])
    jones = ops / np.sqrt(w)[:, None, None]
    return qpol2.KrausEnsemble(w / w.sum(), jones)


def random_retarder_ensemble(rng, n=1000):
    """n equally weighted unitary retarders whose axes and retardances
    scatter around a random mean: a partial depolarizer with a general
    (non-diagonal) Mueller matrix."""
    axis = rng.normal(size=3)
    axes = axis / np.linalg.norm(axis) + 0.35 * rng.normal(size=(n, 3))
    axes /= np.linalg.norm(axes, axis=1)[:, None]
    theta = rng.uniform(0.3, 2.5) + 0.6 * rng.normal(size=n)
    gen = np.einsum("ki,iab->kab", axes, qpol2.PAULI[1:])
    jones = (np.cos(theta / 2)[:, None, None] * np.eye(2)
             - 1j * np.sin(theta / 2)[:, None, None] * gen)
    return qpol2.KrausEnsemble(np.full(n, 1.0 / n), jones)


def random_rotation_mueller(rng):
    """Mueller matrix of a random polarization rotation (block-diagonal SO(3))."""
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] *= -1
    rot = np.eye(4)
    rot[1:, 1:] = q
    return rot


def random_cp_diagonal(rng, lo=0.3):
    """Diagonal depolarizer entries (m11, m22, m33) with nonnegative Pauli weights."""
    while True:
        d = rng.uniform(lo, 1.0, size=3)
        if ((1 + PAULI_SIGNS @ d) / 4).min() >= 0:
            return d


def random_realizable_mueller(rng):
    """Random physical Mueller matrix: rotation times a CP diagonal depolarizer."""
    d = random_cp_diagonal(rng)
    return random_rotation_mueller(rng) @ np.diag(np.concatenate([[1.0], d]))


def concurrence_state(c):
    """Pure state cos(a)|HV> + sin(a)|VH> with concurrence c = sin(2a)."""
    alpha = 0.5 * math.asin(c)
    psi = np.zeros(4, dtype=complex)
    psi[1] = math.cos(alpha)
    psi[2] = math.sin(alpha)
    return np.outer(psi, psi.conj())


def faint_polarizer_case(rng):
    """(polarizer, pair) with the pair nearly orthogonal to the polarizer.

    The polarizer |p><p| sits at a random linear angle; each photon is
    |p_perp> + eps * noise, normalized, with eps in 10^[-3.5, -1.5], so the
    pair transmittance through both arms is about 1e-14 to 1e-6.
    """
    theta = rng.uniform(0.0, math.pi)
    p = np.array([math.cos(theta), math.sin(theta)], dtype=complex)
    kets = []
    for _ in range(2):
        noise = rng.normal(size=2) + 1j * rng.normal(size=2)
        ket = np.array([-p[1], p[0]]) + 10 ** rng.uniform(-3.5, -1.5) * noise
        kets.append(ket / np.linalg.norm(ket))
    psi = np.kron(*kets)
    polarizer = qpol2.KrausEnsemble(np.array([1.0]), np.outer(p, p.conj())[None])
    return polarizer, np.outer(psi, psi.conj())
