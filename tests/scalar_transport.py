"""Scalar per-photon transport: the reference the array kernel is checked against.

One photon at a time, with its own ``np.random.Philox(key=[seed, index])``
generator.  It is slow (tens of thousands of photons per second) and is
kept only as the oracle for ``tests/test_scatter.py``.
"""

import math

import numpy as np

from qpol2.scatter import Medium, sample_hg

_MAX_EVENTS = 1_000_000


def _trace_photon(medium: Medium, seed, index):
    """Transport one photon; returns (transmitted, jones, exit_dir, n_events).

    The Jones matrix of a transmitted photon is expressed in the global
    H/V frame of the exit beam; otherwise it is left in the last local
    frame (only its singular values are meaningful then).
    """
    rng = np.random.Generator(np.random.Philox(key=[seed, index]))
    rand = rng.random
    mu_s = medium.mu_s
    g = medium.g
    d = medium.d
    cos_acc = math.cos(medium.acceptance_half_angle)

    # direction u, transverse frame (e1, e2), real Jones entries
    ux, uy, uz = 0.0, 0.0, 1.0
    e1x, e1y, e1z = 1.0, 0.0, 0.0
    e2x, e2y, e2z = 0.0, 1.0, 0.0
    j00, j01, j10, j11 = 1.0, 0.0, 0.0, 1.0
    z = 0.0
    events = 0

    while events < _MAX_EVENTS:
        step = -math.log(1.0 - rand()) / mu_s
        z_new = z + uz * step
        if uz > 0.0 and z_new >= d:
            if uz < cos_acc:
                return False, (j00, j01, j10, j11), (ux, uy, uz), events
            # rotate the local frame onto the global H/V axes of the exit beam
            hx, hy, hz = 1.0 - ux * ux, -ux * uy, -ux * uz
            norm = math.sqrt(hx * hx + hy * hy + hz * hz)
            hx, hy, hz = hx / norm, hy / norm, hz / norm
            vx = uy * hz - uz * hy
            vy = uz * hx - ux * hz
            vz = ux * hy - uy * hx
            t00 = e1x * hx + e1y * hy + e1z * hz
            t01 = e2x * hx + e2y * hy + e2z * hz
            t10 = e1x * vx + e1y * vy + e1z * vz
            t11 = e2x * vx + e2y * vy + e2z * vz
            out = (
                t00 * j00 + t01 * j10,
                t00 * j01 + t01 * j11,
                t10 * j00 + t11 * j10,
                t10 * j01 + t11 * j11,
            )
            return True, out, (ux, uy, uz), events
        if uz < 0.0 and z_new <= 0.0:
            return False, (j00, j01, j10, j11), (ux, uy, uz), events
        z = z_new

        ct = sample_hg(g, rand())
        st = math.sqrt(max(0.0, 1.0 - ct * ct))
        phi = 2.0 * math.pi * rand()
        cp = math.cos(phi)
        sp = math.sin(phi)

        # J <- S(theta) R(phi) J with S = diag(cos theta, 1)
        r00 = cp * j00 + sp * j10
        r01 = cp * j01 + sp * j11
        r10 = -sp * j00 + cp * j10
        r11 = -sp * j01 + cp * j11
        j00, j01, j10, j11 = ct * r00, ct * r01, r10, r11

        # renormalize so the largest singular value is 1
        q = j00 * j00 + j01 * j01 + j10 * j10 + j11 * j11
        det = j00 * j11 - j01 * j10
        smax = math.sqrt(0.5 * (q + math.sqrt(max(0.0, q * q - 4.0 * det * det))))
        j00, j01, j10, j11 = j00 / smax, j01 / smax, j10 / smax, j11 / smax

        # rotate the propagation frame into the new direction
        nux = st * cp * e1x + st * sp * e2x + ct * ux
        nuy = st * cp * e1y + st * sp * e2y + ct * uy
        nuz = st * cp * e1z + st * sp * e2z + ct * uz
        ne1x = ct * cp * e1x + ct * sp * e2x - st * ux
        ne1y = ct * cp * e1y + ct * sp * e2y - st * uy
        ne1z = ct * cp * e1z + ct * sp * e2z - st * uz
        e2x, e2y, e2z = -sp * e1x + cp * e2x, -sp * e1y + cp * e2y, -sp * e1z + cp * e2z
        ux, uy, uz = nux, nuy, nuz
        e1x, e1y, e1z = ne1x, ne1y, ne1z
        events += 1
    return False, (j00, j01, j10, j11), (ux, uy, uz), events
