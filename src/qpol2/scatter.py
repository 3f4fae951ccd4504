"""Polarized Monte Carlo photon transport through a scattering slab.

Photons are launched along +z into a slab of thickness d with scattering
coefficient mu_s and Henyey-Greenstein anisotropy g.  Each trajectory
accumulates a Jones matrix from per-event Rayleigh dipole amplitude
matrices S(theta) = diag(cos theta, 1) sandwiched between reference-frame
rotations; transmitted paths within the detection cone form the channel's
Kraus ensemble.

One array kernel serves ``simulate`` and ``trace_paths``.  It runs the
photons in chunks of ``_CHUNK`` (16 384) and advances every live photon of a
chunk by one scattering event per iteration; the chunk bounds the working
set at about 0.6 KiB per photon, whatever the number of photons.  Photon i
draws from its own Philox4x64-10 stream keyed (seed, i), the stream of
numpy's ``Philox(key=[seed, i])`` computed here on uint64 arrays; event k uses
draws 3k (step length), 3k + 1 (cos theta) and 3k + 2 (azimuth).  A
photon's path therefore depends only on (seed, i): runs are bitwise
reproducible, and a batch prefix does not depend on the batch size.  Each
photon ends in one of four ways: accepted (transmitted inside the
detection cone), outside the cone, backscattered, or cut off after
``_MAX_EVENTS`` events.
"""

import math
import operator
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .channels import KrausEnsemble, mueller_from_kraus, propagate_tensor
from .exceptions import NoTransmissionError
from .fitting import fit_diagonal

__all__ = [
    "Medium",
    "PathRecord",
    "effective_thickness",
    "sample_hg",
    "trace_paths",
    "simulate",
    "mueller_vs_eta",
]

_BELL_TENSOR = np.diag([1.0, -1.0, 1.0, 1.0])
_MAX_EVENTS = 1_000_000
# Photons per kernel chunk.  A chunk's working set is about 0.6 KiB per
# photon (9-11 MiB at 1 << 14), below the 11.4 MiB of reading a 10 000-path
# Kraus JSON, so transport does not set a slab run's peak memory.
_CHUNK = 1 << 14
_BLOCK_BUDGET = 1 << 13     # live photons x Philox blocks per draw refill

# termination reasons
_ACCEPTED, _OUTSIDE_CONE, _BACKSCATTERED, _TRUNCATED = range(4)

# Philox4x64-10 multipliers and key increments (Salmon et al., SC'11)
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_LOW32 = np.uint64(0xFFFFFFFF)


@dataclass(frozen=True)
class Medium:
    """Scattering slab: mu_s (1/mm), anisotropy g, thickness d (mm), cone (rad)."""

    mu_s: float
    g: float
    d: float
    acceptance_half_angle: float = math.radians(5.0)

    def __post_init__(self):
        if not (math.isfinite(self.mu_s) and self.mu_s > 0):
            raise ValueError("mu_s must be positive and finite")
        if not 0 <= self.g < 1:
            raise ValueError("g must lie in [0, 1)")
        if not (math.isfinite(self.d) and self.d >= 0):
            raise ValueError("thickness must be nonnegative and finite")
        if not 0 < self.acceptance_half_angle <= math.pi / 2:
            raise ValueError("acceptance half-angle must lie in (0, pi/2]")

    @property
    def transport_mean_free_path(self) -> float:
        return 1.0 / (self.mu_s * (1.0 - self.g))


@dataclass(frozen=True)
class PathRecord:
    """One trajectory: accumulated Jones matrix, exit direction, event count."""

    jones: np.ndarray
    exit_direction: np.ndarray
    n_events: int
    transmitted: bool


def effective_thickness(medium: Medium) -> float:
    """Slab thickness in transport mean free paths, eta = d mu_s (1 - g)."""
    return medium.d * medium.mu_s * (1.0 - medium.g)


def sample_hg(g, xi):
    """Sample cos(theta) from the Henyey-Greenstein phase function.

    ``xi`` is uniform in [0, 1); works on scalars and elementwise on
    arrays.  g = 0 reduces to isotropic scattering.
    """
    if abs(g) < 1e-8:
        return 1.0 - 2.0 * xi
    frac = (1.0 - g * g) / (1.0 - g + 2.0 * g * xi)
    ct = (1.0 + g * g - frac * frac) / (2.0 * g)
    return np.clip(ct, -1.0, 1.0)


def _seed_key(seed) -> int:
    """Return ``seed`` as the first Philox key word, an integer in [0, 2**64)."""
    try:
        key = operator.index(seed)
    except TypeError as exc:
        raise ValueError(f"seed must be an integer, got {seed!r}") from exc
    if not 0 <= key < 2**64:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed!r}")
    return key


def _mulhilo(m, x):
    """High and low 64-bit words of the product of the constant ``m`` and ``x``."""
    m_lo, m_hi = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    x_lo, x_hi = x & _LOW32, x >> 32
    lh, hl = x_lo * m_hi, x_hi * m_lo
    mid = ((x_lo * m_lo) >> 32) + (lh & _LOW32) + (hl & _LOW32)
    return x_hi * m_hi + (lh >> 32) + (hl >> 32) + (mid >> 32), x * np.uint64(m)


def _philox_uniform(seed, photons, first_block, n_blocks):
    """Uniform draws from the Philox4x64-10 streams keyed (seed, photon index).

    Returns shape (4 n_blocks, len(photons)): row r holds draw
    4 first_block + r of each photon's stream, bitwise equal to the draws of
    ``np.random.Generator(np.random.Philox(key=[seed, i])).random()``.
    Block b is the Philox output for the counter (b + 1, 0, 0, 0).
    """
    shape = (n_blocks, photons.size)
    c0 = np.empty(shape, dtype=np.uint64)
    c0[:] = np.arange(first_block + 1, first_block + 1 + n_blocks, dtype=np.uint64)[:, None]
    c1 = c2 = c3 = np.zeros(shape, dtype=np.uint64)
    k0, k1 = seed, photons.astype(np.uint64)
    for _ in range(10):
        hi0, lo0 = _mulhilo(_PHILOX_M[0], c0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ np.uint64(k0), lo1, hi0 ^ c3 ^ k1, lo0
        k0 = (k0 + _PHILOX_W[0]) % 2**64
        k1 = k1 + np.uint64(_PHILOX_W[1])
    words = np.stack([c0, c1, c2, c3], axis=1).reshape(4 * n_blocks, photons.size)
    return (words >> 11).astype(float) * 2.0**-53


class _Transport(NamedTuple):
    """Per-photon outcome of one chunk of the transport kernel, in launch order."""

    transmitted: np.ndarray  # (N,) bool, reason == _ACCEPTED
    jones: np.ndarray        # (N, 2, 2) real Jones matrices
    direction: np.ndarray    # (N, 3) exit (or last) propagation direction
    events: np.ndarray       # (N,) scattering events
    reason: np.ndarray       # (N,) int8 termination reason


def _transport(medium: Medium, n_photons, seed):
    """Trace ``n_photons`` photons; yields one _Transport per chunk of ``_CHUNK``.

    Chunking bounds the working set independently of ``n_photons``.
    """
    seed = _seed_key(seed)
    n = int(n_photons)
    if n < 0:
        raise ValueError("n_photons must be nonnegative")
    for start in range(0, n, _CHUNK):
        yield _trace_chunk(medium, seed, np.arange(start, min(n, start + _CHUNK)))


def _trace_chunk(medium: Medium, seed, photons) -> _Transport:
    """Advance every live photon of a chunk one scattering event per iteration.

    All live photons sit at the same event k and use draws 3k (step),
    3k + 1 (cos theta) and 3k + 2 (phi) of their streams.  ``state`` holds
    one column per live photon (rows: direction u, frame e1, e2, Jones
    entries j00 j01 j10 j11, depth z); ``draws`` row r is draw
    ``first + r``.  Terminated photons are written to the outputs and
    dropped from both arrays.
    """
    mu_s, g, d = medium.mu_s, medium.g, medium.d
    cos_acc = math.cos(medium.acceptance_half_angle)
    max_events = _MAX_EVENTS
    last_block = (3 * max_events - 1) // 4
    n = photons.size
    out = (np.empty((n, 4)), np.empty((n, 3)), np.empty(n, dtype=np.int64),
           np.empty(n, dtype=np.int8))
    offset = photons[0]
    state = np.zeros((14, n))
    state[[2, 3, 7, 9, 12]] = 1.0  # u = +z, e1 = x, e2 = y, J = identity
    draws = np.empty((0, n))
    first = 0
    k = 0
    while photons.size and k < max_events:
        if 3 * k + 2 >= first + len(draws):
            # Few live photons draw blocks for many events at once.
            block = (first + len(draws)) // 4
            n_blocks = min(max(1, _BLOCK_BUDGET // photons.size), last_block + 1 - block)
            fresh = _philox_uniform(seed, photons, block, n_blocks)
            draws = np.concatenate([draws[3 * k - first:], fresh])
            first = 3 * k
        r = 3 * k - first
        uz = state[2]
        z_new = state[13] + uz * (-np.log(1.0 - draws[r]) / mu_s)
        forward = (uz > 0.0) & (z_new >= d)
        done = forward | ((uz < 0.0) & (z_new <= 0.0))
        if done.any():
            why = np.where(forward, np.where(uz < cos_acc, _OUTSIDE_CONE, _ACCEPTED),
                           _BACKSCATTERED)
            ended, keep = np.flatnonzero(done), np.flatnonzero(~done)
            _finish(out, photons[ended] - offset, state.take(ended, axis=1), why[ended], k)
            state, draws, photons, z_new = (a.take(keep, axis=-1)
                                            for a in (state, draws, photons, z_new))
        state[13] = z_new

        ct = sample_hg(g, draws[r + 1])
        st = np.sqrt(np.maximum(0.0, 1.0 - ct * ct))
        phi = 2.0 * math.pi * draws[r + 2]
        cp = np.cos(phi)
        sp = np.sin(phi)

        # J <- S(theta) R(phi) J with S = diag(cos theta, 1), renormalized so
        # that the largest singular value is 1
        top = ct * (cp * state[9:11] + sp * state[11:13])
        bot = -sp * state[9:11] + cp * state[11:13]
        q = top[0] * top[0] + top[1] * top[1] + bot[0] * bot[0] + bot[1] * bot[1]
        det = top[0] * bot[1] - top[1] * bot[0]
        smax = np.sqrt(0.5 * (q + np.sqrt(np.maximum(0.0, q * q - 4.0 * det * det))))
        state[9:11] = top / smax
        state[11:13] = bot / smax

        # rotate the propagation frame into the new direction
        u, e1, e2 = state[0:3], state[3:6], state[6:9]
        new_u = st * cp * e1 + st * sp * e2 + ct * u
        new_e1 = ct * cp * e1 + ct * sp * e2 - st * u
        new_e2 = -sp * e1 + cp * e2
        state[0:3], state[3:6], state[6:9] = new_u, new_e1, new_e2
        k += 1
    _finish(out, photons - offset, state, np.full(photons.size, _TRUNCATED, dtype=np.int8), k)
    jones, direction, events, reason = out
    return _Transport(reason == _ACCEPTED, jones.reshape(n, 2, 2), direction, events, reason)


def _finish(out, rows, state, reason, events):
    """Write terminated photons to ``out`` rows; accepted ones in the exit beam's H/V frame."""
    jones, direction, n_events, reasons = out
    j = state[9:13]
    accepted = reason == _ACCEPTED
    if accepted.any():
        j = j.copy()
        j[:, accepted] = _exit_jones(state[:, accepted])
    jones[rows] = j.T
    direction[rows] = state[0:3].T
    n_events[rows] = events
    reasons[rows] = reason


def _dot(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _exit_jones(state):
    """Rotate the local frame (e1, e2) of exiting photons onto the global H/V axes."""
    u, e1, e2 = state[0:3], state[3:6], state[6:9]
    ux = u[0]
    h = np.array([1.0 - ux * ux, -ux * u[1], -ux * u[2]])
    h /= np.sqrt(_dot(h, h))
    # v = u x h, written out in np.cross's operand order so the bits match it
    v = (u[1] * h[2] - u[2] * h[1], u[2] * h[0] - u[0] * h[2], u[0] * h[1] - u[1] * h[0])
    top, bot = state[9:11], state[11:13]
    return np.concatenate([_dot(e1, h) * top + _dot(e2, h) * bot,
                           _dot(e1, v) * top + _dot(e2, v) * bot])


def trace_paths(medium: Medium, n_photons, seed):
    """Trace every photon and return one PathRecord per launched photon.

    The Jones matrix of a transmitted photon is expressed in the global H/V
    frame of the exit beam; otherwise it is left in the last local frame
    (only its singular values are meaningful then).
    """
    return [record for t in _transport(medium, n_photons, seed)
            for record in map(PathRecord, t.jones.astype(complex), t.direction,
                              t.events.tolist(), t.transmitted.tolist())]


def simulate(medium: Medium, n_photons, seed) -> KrausEnsemble:
    """Run the transport and return the transmitted-path Kraus ensemble.

    Equal weights 1/N_transmitted over the paths accepted by the detection
    cone, each Jones matrix in the global H/V frame.  Deterministic for a
    given (medium, n_photons, seed); ``seed`` is an integer in [0, 2**64).
    """
    if n_photons < 1:
        raise ValueError("n_photons must be at least 1")
    jones = np.concatenate([t.jones[t.transmitted] for t in _transport(medium, n_photons, seed)],
                           dtype=complex)
    if not len(jones):
        raise NoTransmissionError("no transmission within acceptance")
    return KrausEnsemble(np.full(len(jones), 1.0 / len(jones)), jones)


def _slab_at_eta(medium: Medium, eta) -> Medium:
    """``medium`` with the thickness that gives effective thickness ``eta``."""
    return replace(medium, d=eta / (medium.mu_s * (1.0 - medium.g)))


def _bell_m(mueller) -> float:
    """Isotropic m fitted to the Bell tensor sent through ``mueller``."""
    fit = fit_diagonal(_BELL_TENSOR, propagate_tensor(mueller, _BELL_TENSOR), model="isotropic")
    return float(fit.params[0])


def mueller_vs_eta(medium_template: Medium, eta_grid, n_photons, seed):
    """Simulate a slab at each effective thickness and fit the isotropic m.

    The slab thickness is adjusted to reach each eta at fixed mu_s and g;
    the same seed is reused across grid points (common random numbers).
    Returns a list of (eta, mueller, m_fit) triples.
    """
    eta_grid = [float(e) for e in eta_grid]
    if any(b <= a for a, b in zip(eta_grid, eta_grid[1:])):
        raise ValueError("eta grid must be strictly increasing")
    results = []
    for eta in eta_grid:
        ensemble = simulate(_slab_at_eta(medium_template, eta), n_photons, seed)
        mueller, _ = mueller_from_kraus(ensemble)
        results.append((eta, mueller, _bell_m(mueller)))
    return results
