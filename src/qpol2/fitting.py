"""Mueller-matrix reconstruction from two-photon correlation data.

Implements nonlinear least-squares fits of the congruence law
K_out = M K_in M^T for diagonal depolarizers (isotropic or anisotropic),
general 4x4 Mueller matrices from multiple input states, stabilizer
diagnostics quantifying when such fits are identifiable, and per-pixel
image reconstruction.  One batched projected Levenberg-Marquardt solver
runs every fit.
"""

from dataclasses import dataclass

import numpy as np

from .channels import _coherency, mueller_maps_physical
from .exceptions import UnderdeterminedFitError
from .polarization import _real

__all__ = [
    "FitResult",
    "StabilizerReport",
    "PixelMap",
    "fit_diagonal",
    "fit_general",
    "stabilizer_dimension",
    "reconstruct_image",
    "mueller_similarity",
]

_FIT_TOL = 1e-14
_NULL_SPACE_REL_TOL = 1e-10
# Each fit model as a table A (16, 1 + n) with vec(M) = A (1, x), row-major:
# column 0 sets M00 and column s the entries that parameter s sets.
_COORDINATES = {"diagonal": np.eye(16)[:, [0, 5, 10, 15]], "general": np.eye(16)}
_COORDINATES["isotropic"] = _COORDINATES["diagonal"] @ [[1, 0], [0, 1], [0, 1], [0, 1]]


@dataclass(frozen=True)
class FitResult:
    """Outcome of a Mueller fit.

    ``params`` holds 1 (isotropic), 3 (diagonal), or 15 (general, row-major
    without M00) numbers; M00 is always fixed to 1.  The model's table A =
    ``_COORDINATES[model]`` places them, vec(M) = A (1, params) row-major:
    M11 = M22 = M33 (isotropic), the diagonal entries (diagonal) or every
    entry but M00 (general).  ``iterations`` counts solver steps for every
    model; for the general model it is the sum over all multistarts, or the
    polish steps alone when the fit is the polished closed-form start of
    three inputs, or of an invertible plus a rank-1 input (kept when it is
    completely positive).  A diagonal or isotropic fit to a diagonal input
    tensor is the closed form and reports 0.  ``converged`` means the solver
    met a tolerance within its step budget (for the general model, or ended
    it moving only along directions below the damping floor) and, when a
    residual tolerance was configured, the residual is below it.
    """

    model: str
    params: np.ndarray
    residual: float
    iterations: int
    converged: bool

    def mueller(self) -> np.ndarray:
        """Assemble the fitted 4x4 Mueller matrix."""
        if self.model not in _COORDINATES:
            raise ValueError(f"unknown model {self.model!r}")
        return (_COORDINATES[self.model] @ np.append(1.0, self.params)).reshape(4, 4)

    def as_dict(self) -> dict:
        return {
            "model": self.model,
            "params": [float(p) for p in self.params],
            "residual": self.residual,
            "iterations": self.iterations,
            "converged": self.converged,
        }


@dataclass(frozen=True)
class StabilizerReport:
    """Dimension of the joint stabilizer Lie algebra of input tensors.

    The algebra is {X : X K_i + K_i X^T = 0 for all inputs}; a nonzero
    dimension means a continuous family M exp(tX) reproduces the same
    output data, so a congruence fit from these inputs alone cannot be
    unique.  ``generators`` holds an orthonormal basis of the algebra.
    """

    tensors: tuple
    lie_algebra_dim: int
    identifiable: bool
    generators: np.ndarray

    def as_dict(self) -> dict:
        return {
            "n_inputs": len(self.tensors),
            "lie_algebra_dim": self.lie_algebra_dim,
            "identifiable": self.identifiable,
            "generators": [g.tolist() for g in self.generators],
        }


@dataclass(frozen=True)
class PixelMap:
    """Per-pixel fit parameters and residuals of an image reconstruction."""

    width: int
    height: int
    model: str
    values: np.ndarray
    residuals: np.ndarray
    converged: np.ndarray

    def plane(self, index) -> np.ndarray:
        """Return one parameter plane as a (height, width) array."""
        return self.values[:, :, index]


def _check_tensor_pair(k_in, k_out):
    k_in, k_out = (_real(k, (4, 4), "correlation tensors") for k in (k_in, k_out))
    if abs(k_in[0, 0] - 1.0) > 1e-8:
        raise ValueError("input tensor must have K00 = 1")
    return k_in, k_out


def _projected_lm(x, system, lo, max_steps, floor, accel=None, damping=1e-3):
    """Refine a batch of box-constrained least-squares problems in place.

    Row p of ``x`` (P, n) is the start of problem p, whose parameters lie in
    [lo, 1].  ``system(x, rows)`` returns the costs |r|^2, the gradients
    J^T r and the Hessians at points x of the problems ``rows``;
    ``system(x, rows, derivatives=False)`` returns the costs alone.
    Projected Levenberg-Marquardt steps on the box (Kanzow, Yamashita &
    Fukushima, J. Comput. Appl. Math. 172, 375, 2004) refine each problem
    until its step or first-order cost change falls to ``_FIT_TOL`` or it
    has taken ``max_steps`` steps.  The damping starts at ``damping``, and
    ``floor`` bounds it from below.
    ``accel(x, step, rows)``, when given, returns J^T times the second
    directional derivative of r along ``step``, and each step then takes the
    geodesic acceleration (Transtrum & Sethna, arXiv:1201.5885).  Returns
    step counts and converged flags.
    """
    damping = np.full(len(x), float(damping))
    steps = np.zeros(len(x), dtype=int)
    converged = np.zeros(len(x), dtype=bool)
    live = np.arange(len(x))
    eye = np.eye(x.shape[1])
    for _ in range(max_steps):
        xs, lam = x[live], damping[live]
        cost, grad, hess = system(xs, live)
        # A parameter on a bound whose gradient points out of the box stays put.
        free = ~(((xs <= lo) & (grad > 0)) | ((xs >= 1) & (grad < 0)))
        lhs = hess * (free[:, :, None] & free[:, None, :]) + lam[:, None, None] * eye
        step = np.linalg.solve(lhs, -np.where(free, grad, 0.0)[:, :, None])[:, :, 0]
        if accel is not None:
            curve = np.where(free, accel(xs, step, live), 0.0)
            step -= 0.5 * np.linalg.solve(lhs, curve[:, :, None])[:, :, 0]
        trial = np.clip(xs + step, lo, 1)
        better = system(trial, live, derivatives=False) <= cost
        x[live[better]] = trial[better]
        # The floor keeps lhs invertible when a parameter does not act on r.
        damping[live] = np.where(better, np.maximum(lam / 10, floor), lam * 10)
        # |grad . step| stays measurable where the cost no longer resolves a step.
        moved = trial - xs
        done = ((np.abs((grad * moved).sum(axis=1)) <= _FIT_TOL * cost)
                | (np.abs(moved).max(axis=1) <= _FIT_TOL))
        steps[live] += 1
        converged[live[done]] = True
        live = live[~done]
        if not live.size:
            break
    return steps, converged


def _solve_diagonal(k_in, k_out, model):
    """Fit M = diag(1, m) to K_out = M K_in M^T for a stack k_out (P, 4, 4).

    The start is m_a = sqrt(K_out,aa / K_in,aa), clipped to [0, 1], and 0.5
    where K_in,aa carries no signal.  For a diagonal k_in the residual
    splits into one convex term (u_a K_in,aa - K_out,aa)^2 per axis in
    u_a = m_a^2 (for the isotropic model, one sum over the axes in u = m^2,
    whose least-squares ratio the start is), so the start with every
    nonzero K_in,aa counted as signal is the exact box minimizer; it is
    returned after 0 steps.  Otherwise axes with |K_in,aa| <= 0.05 count as
    carrying no signal and ``_projected_lm`` refines each pixel for at most
    100 steps with the exact Hessian of the model's ``_Congruence`` form.
    A pixel's fit is bitwise the same in any batch.  Returns parameters
    (P, 1 or 3), residual norms, step counts and converged flags.
    """
    if model not in ("diagonal", "isotropic"):
        raise ValueError("model must be 'diagonal' or 'isotropic'")
    isotropic = model == "isotropic"
    exact = not np.count_nonzero(k_in - np.diag(np.diagonal(k_in)))
    k_diag, out_diag = np.diagonal(k_in)[1:], np.diagonal(k_out, axis1=1, axis2=2)[:, 1:]
    # A square that underflows to 0 would make the isotropic ratio 0/0.
    signal = k_diag * k_diag > 0 if exact else np.abs(k_diag) > 0.05
    if isotropic:  # one least-squares ratio over the three axes
        out_diag, k_diag = (out_diag * k_diag).sum(axis=1, keepdims=True), k_diag @ k_diag
        signal = signal.any(keepdims=True)
    ratio = out_diag / np.where(signal, k_diag, 1.0)
    x = np.where(signal, np.sqrt(np.clip(ratio, 0, 1)), 0.5)
    problem = _Congruence(k_in[None], k_out, model)
    if exact:
        steps, converged = np.zeros(len(x), dtype=int), np.ones(len(x), dtype=bool)
    else:
        steps, converged = _projected_lm(x, problem.system, 0, 100, 1e-10)
    return x, np.sqrt(problem.cost(x)), steps, converged


def fit_diagonal(k_in, k_out, model="diagonal", residual_tol=None) -> FitResult:
    """Fit M = diag(1, m11, m22, m33) to K_out = M K_in M^T.

    ``model`` is "diagonal" (three parameters) or "isotropic"
    (m11 = m22 = m33).  Parameters are box-constrained to [0, 1].  This is
    a one-pixel call of the batched solver behind ``reconstruct_image``.
    """
    k_in, k_out = _check_tensor_pair(k_in, k_out)
    params, residual, steps, ok = _solve_diagonal(k_in, k_out[None], model)
    residual = float(residual[0])
    converged = bool(ok[0]) and (residual_tol is None or residual <= residual_tol)
    return FitResult(model, params[0], residual, int(steps[0]), converged)


def _congruence_form(k_in, coords) -> np.ndarray:
    """Coefficients Q (16P, n, n) of the congruence as a quadratic form in
    coordinates z with vec(M) = A z, row-major, for the table A (16, n):
    (M K_p M^T)_ab = z^T Q_pab z with Q_pab = A_a^T K_p A_b over the stack
    k_in (P, 4, 4), where A_a holds rows 4a to 4a + 3 of A.  For A = I,
    Q_pab[(i, c), (j, d)] = delta_ai delta_bj K_p,cd."""
    blocks = coords.reshape(4, 4, -1)
    left = blocks.transpose(0, 2, 1) @ k_in[:, None]
    return (left[:, :, None] @ blocks).reshape(-1, coords.shape[1], coords.shape[1])


_SIGN_FLIPS = [
    np.diag([1.0, s1, s2, s3])
    for s1 in (1.0, -1.0)
    for s2 in (1.0, -1.0)
    for s3 in (1.0, -1.0)
]
_GENERAL_FLOOR = 1e-13

class _Congruence:
    """The stacked residuals r = M K_in M^T - K_out of a fit model.

    Every row x of a batch shares the inputs k_in (P, 4, 4); row p fits
    target p % T of the T stacks of P output tensors in k_out.  Each
    residual r_q = z^T Q_q z - K_out,q is a quadratic form in the model's
    coordinates z = (1, x), vec(M) = A z for A = ``_COORDINATES[model]``,
    whose coefficients are built once.  Its gradient is Sigma_q z and its
    Hessian Sigma_q = Q_q + Q_q^T.  ``system`` and ``accel`` are the
    callbacks of ``_projected_lm``.
    """

    def __init__(self, k_in, k_out, model):
        self.k_in, self.k_out = k_in, k_out
        q = _congruence_form(k_in, _COORDINATES[model])
        sym = q + q.transpose(0, 2, 1)
        size, n = q.shape[:2]
        self.target = k_out.reshape(-1, size)
        self.q_cols = q.reshape(size, n * n).T
        self.sym_rows = sym.transpose(1, 0, 2).reshape(n, size * n)
        self.sym_flat = sym.reshape(size, n * n)
        self.jac = None

    def quadratic(self, x, m00=1.0):
        # z = (m00, x) and Q(z (x) z) for each row of x.
        z = np.empty((len(x), 1 + x.shape[1]))
        z[:, 0], z[:, 1:] = m00, x
        outer = (z[:, :, None] * z[:, None, :]).reshape(len(x), len(self.q_cols))
        return z, outer @ self.q_cols

    def residual(self, x, rows=None):
        # z and r at x for the problems ``rows``, by default one per row.
        rows = np.arange(len(x)) if rows is None else rows
        z, r = self.quadratic(x)
        return z, r - self.target[rows % len(self.target)]

    def cost(self, x, rows=None):
        r = self.residual(x, rows)[1]
        return (r * r).sum(axis=1)

    def system(self, x, rows, derivatives=True):
        if not derivatives:
            return self.cost(x, rows)
        z, r = self.residual(x, rows)
        # d r / dx without the column of the fixed M00; the Hessian
        # J^T J + sum_q r_q Sigma_q is exact.  Gauss-Newton alone (J^T J)
        # crawls on large residuals.  ``second`` is one product per row: a
        # single 2-D product rounds differently for a one-row batch than for
        # a larger one, and a row's fit must not depend on its batch.
        self.jac = jac = (z @ self.sym_rows).reshape(r.shape + z.shape[1:])[..., 1:]
        second = (r[:, None] @ self.sym_flat).reshape(z.shape + z.shape[1:])[:, 1:, 1:]
        hess = jac.transpose(0, 2, 1) @ jac + second
        return (r * r).sum(axis=1), (r[:, None] @ jac)[:, 0], hess

    def accel(self, x, step, rows):
        # The second derivative of r along v is 2 Q(v (x) v), pulled back
        # through the Jacobian ``system`` has just built at x.
        return 2 * (self.quadratic(step, m00=0.0)[1][:, None] @ self.jac)[:, 0]

    def norm(self, x):
        return float(np.sqrt(self.cost(x[None])[0]))

    def result(self, x, residual, steps, ok, residual_tol) -> FitResult:
        """The fit at x, whose residual norm is ``residual``; when the data
        leave the sign of the diagonal block free, the representative with
        M11 >= 0.  Only a true symmetry counts: a flip whose residual differs
        from the fit's (lower as well as higher) is a different, non-stationary
        point, so it is not taken."""
        m = np.append(1.0, x).reshape(4, 4)
        if m[1, 1] < 0:
            tol = max(1e-12, 1e-9 * residual)
            for flip in _SIGN_FLIPS:
                cand = m @ flip
                if cand[1, 1] >= 0 and abs(self.norm(cand.flat[1:]) - residual) <= tol:
                    x = cand.flatten()[1:]
                    residual = self.norm(x)
                    break
        converged = ok and (residual_tol is None or residual <= residual_tol)
        return FitResult("general", x, residual, steps, converged)


def _conic_points(c1, c2, d, boost):
    """Points (2, 2) of the unit circle p^2 + q^2 = 1, or of the hyperbola
    p^2 - q^2 = 1 when ``boost``, on the line c1 p + c2 q = d.  Where the
    line misses the curve, which rounding causes when it touches it, the
    point where c1 p + c2 q comes nearest d stands in, twice."""
    if not boost:
        offset = np.arccos(np.clip(d / np.hypot(c1, c2), -1.0, 1.0))
        theta = np.arctan2(c2, c1) + np.array([offset, -offset])
        return np.column_stack([np.cos(theta), np.sin(theta)])
    # With u = +-e^t (the sign picks the branch), (p, q) = (u + 1/u, u - 1/u) / 2
    # and the line is (c1 + c2) u^2 - 2 d u + (c1 - c2) = 0.
    disc = d * d - (c1 * c1 - c2 * c2)
    if disc >= 0:
        root = d + np.copysign(np.sqrt(disc), d)
        u = np.array([root / (c1 + c2), (c1 - c2) / root])
    else:
        u = np.full(2, np.sign(d * (c1 + c2)) * np.sqrt((c1 - c2) / (c1 + c2)))
    return np.column_stack([u + 1 / u, u - 1 / u]) / 2


def _orbit_starts(a, b, x, y, alpha, g, g_out):
    """The Mueller matrices (C, 4, 4), C <= 8, with M00 = 1 among the exact
    fits of an invertible input plus one product input a b^T.

    The isometry M fixes span(a, b) up to a sign s, M a = s alpha x and
    M b = s y / alpha, and maps the G-orthogonal complement W of span(a, b)
    (the null space of [G a, G b]^T) isometrically onto the G'-orthogonal
    complement W' of span(x, y).  With eigh, T^T (W^T G W) T = diag(eta)
    = T'^T (W'^T G' W') T' (no fit when the signatures differ), so the exact
    fits are M = [s alpha x, s y / alpha, W' T' O] [a, b, W T]^-1 for every O
    that keeps diag(eta): a rotation (definite eta) or a boost (indefinite)
    times I or diag(1, -1).  This is the orbit M0 exp(tX) of the one
    stabilizer generator X.  M00 is affine in (p, q) = (cos, sin) or
    (cosh, sinh) of the orbit parameter, so each sign and reflection gives
    the two points of ``_conic_points``.
    """
    frames = []
    for u, v, metric in ((a, b, g), (x, y, g_out)):
        w = np.linalg.svd(np.stack([metric @ u, metric @ v]))[2][2:].T
        eig, t = np.linalg.eigh(w.T @ metric @ w)
        frames.append((w @ (t / np.sqrt(np.abs(eig))), np.sign(eig)))
    (wt, eta), (wt_out, eta_out) = frames
    if not np.array_equal(eta, eta_out):
        return np.empty((0, 4, 4))
    frame_inv = np.linalg.inv(np.column_stack([a, b, wt]))
    frame_out = np.column_stack([alpha * x, y / alpha, wt_out])
    # M00 = f D h for M = F' D F^-1 with D = diag(s, s, O), O = (p I + q turn) flip.
    f, h = frame_out[0], frame_inv[:, 0]
    boost = eta[0] != eta[1]
    turn = np.array([[0.0, 1.0 if boost else -1.0], [1.0, 0.0]])
    blocks = []
    for s in (1.0, -1.0):
        for flip in (np.eye(2), np.diag([1.0, -1.0])):
            c1, c2 = f[2:] @ flip @ h[2:], f[2:] @ turn @ flip @ h[2:]
            for p, q in _conic_points(c1, c2, 1.0 - s * (f[:2] @ h[:2]), boost):
                block = np.zeros((4, 4))
                block[:2, :2] = s * np.eye(2)
                block[2:, 2:] = (p * np.eye(2) + q * turn) @ flip
                blocks.append(block)
    return frame_out @ np.array(blocks) @ frame_inv


def _closed_form_start(k_in, k_out):
    """Candidate Mueller entries (C, 15) that two or three exact pairs
    determine, or None.

    Applies when the first input K0 is invertible and the others are rank 1,
    K_p = a b^T.  Then M K0 M^T = K0' makes M an isometry from the metric
    G = K0^-1 to G' = K0'^-1 (Givens & Kostinski, J. Mod. Opt. 40, 471,
    1993), and the rank-1 output x y^T of a product input gives M a =
    alpha x and M b = y / alpha up to one common sign, with alpha^4 =
    (a^T G a / x^T G' x) (y^T G' y / b^T G b).  With three pairs the cross
    term a1^T G a2 = alpha1 alpha2 x1^T G' x2 fixes the sign of alpha1 alpha2,
    and M00 > 0 the overall sign: the one candidate is M = [alpha1 x1,
    y1 / alpha1, alpha2 x2, y2 / alpha2] A^-1 with A = [a1 b1 a2 b2].  With
    two pairs the exact fits form a one-parameter orbit, and the candidates
    are its points with M00 = 1 from ``_orbit_starts``.  Each candidate is
    scaled to M00 = 1 and clipped to the box.
    """
    if len(k_in) not in (2, 3):
        return None
    with np.errstate(all="ignore"):
        try:
            sing = np.linalg.svd(k_in, compute_uv=False)
            if (sing[0, 3] <= _NULL_SPACE_REL_TOL * sing[0, 0]
                    or np.any(sing[1:, 1] > _NULL_SPACE_REL_TOL * sing[1:, 0])):
                return None
            # Top singular pairs (a, b) of the product inputs and (x, y) of
            # their outputs.
            u, sing, vt = np.linalg.svd(np.concatenate([k_in[1:], k_out[1:]]))
            root = np.sqrt(sing[:, :1])
            (a, x), (b, y) = np.split(u[:, :, 0] * root, 2), np.split(vt[:, 0] * root, 2)
            g, g_out = np.linalg.inv(k_in[0]), np.linalg.inv(k_out[0])
            alpha = np.array([
                ((ap @ g @ ap) / (xp @ g_out @ xp) * (yp @ g_out @ yp) / (bp @ g @ bp)) ** 0.25
                for ap, bp, xp, yp in zip(a, b, x, y)])
            if len(k_in) == 2:
                m = _orbit_starts(a[0], b[0], x[0], y[0], alpha[0], g, g_out)
            else:
                alpha[1] *= np.sign((a[0] @ g @ a[1]) * (x[0] @ g_out @ x[1]))
                basis = np.column_stack([a[0], b[0], a[1], b[1]])
                images = np.column_stack([alpha[0] * x[0], y[0] / alpha[0],
                                          alpha[1] * x[1], y[1] / alpha[1]])
                m = np.linalg.solve(basis.T, images.T).T[None]
        except np.linalg.LinAlgError:
            return None
        m = m / m[:, :1, :1]
    m = m[np.isfinite(m).all(axis=(1, 2))]
    if not len(m):
        return None
    return np.clip(m.reshape(-1, 16)[:, 1:], -1.0, 1.0)


def _saddle_exit(problem, x):
    """The point (1, 15) of least cost on the line through x along the
    Hessian's most negative curvature, or None where the Hessian at x is
    positive semidefinite or no point of that line is lower than x.  The
    residual is quadratic in x, so on that line it is r0 + h r1 + h^2 r2
    exactly and the cost a quartic in h, least at one of its stationary
    points."""
    _, _, (hess,) = problem.system(x, None)
    curvature, vectors = np.linalg.eigh(hess)
    if curvature[0] >= 0:
        return None
    e = vectors[:, 0]
    r0 = problem.residual(x)[1][0]
    r1, r2 = problem.jac[0] @ e, problem.quadratic(e[None], m00=0.0)[1][0]
    roots = np.roots([2 * r2 @ r2, 3 * r1 @ r2, r1 @ r1 + 2 * r0 @ r2, r0 @ r1])
    h = np.append(roots[roots.imag == 0].real, 0.0)
    h = h[np.argmin([np.sum((r0 + t * r1 + t * t * r2) ** 2) for t in h])]
    return np.clip(x + h * e, -1.0, 1.0) if h else None


def _polish(problem, x):
    """Refine a closed-form start x (1, 15) in place; return the step count
    and whether the solver converged.

    The damping starts at its floor: from 1e-3 the steps can stop on the
    flat valley that a one-dimensional stabilizer leaves, some 1e-12 above
    the exact fit.  Where the polished x is a saddle of that valley, a
    second run starts from ``_saddle_exit`` and x takes its end if that is
    lower.
    """
    steps, (ok,) = _projected_lm(x, problem.system, -1.0, 1000, _GENERAL_FLOOR,
                                 problem.accel, damping=_GENERAL_FLOOR)
    exit = _saddle_exit(problem, x) if ok else None
    if exit is not None:
        more, (settled,) = _projected_lm(exit, problem.system, -1.0, 1000, _GENERAL_FLOOR,
                                         problem.accel, damping=_GENERAL_FLOOR)
        steps = steps + more
        if settled and problem.norm(exit[0]) < problem.norm(x[0]):
            x[:] = exit
    return int(steps[0]), bool(ok)


def _random_start_fit(problem, n_starts, seed, residual_tol) -> FitResult:
    """The multistart fit of ``fit_general`` from ``n_starts`` uniform starts."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, size=(n_starts, 15))
    steps, converged = _projected_lm(x, problem.system, -1.0, 1000, _GENERAL_FLOOR,
                                     problem.accel)
    residuals = np.sqrt(problem.cost(x))
    if np.any(np.abs(x[np.argmin(residuals)]) >= 1.0):
        # Projected steps that reach the bound from far starts can stop at a
        # boundary stationary point; when the best start did, draw one more
        # batch from the same stream.
        more = rng.uniform(-1.0, 1.0, size=(n_starts, 15))
        more_steps, more_converged = _projected_lm(more, problem.system, -1.0, 1000,
                                                   _GENERAL_FLOOR, problem.accel)
        x, steps = np.concatenate([x, more]), np.concatenate([steps, more_steps])
        converged = np.concatenate([converged, more_converged])
        residuals = np.concatenate([residuals, np.sqrt(problem.cost(more))])
    best = int(np.argmin(residuals))
    x, residual, ok = x[best].copy(), float(residuals[best]), bool(converged[best])
    if not ok:
        # Such as the nearly flat valley of exact fits that a one-dimensional
        # stabilizer can leave, which the floor keeps the steps crawling along.
        _, (grad,), (hess,) = problem.system(x[None], None)
        free = ~(((x <= -1.0) & (grad > 0)) | ((x >= 1.0) & (grad < 0)))
        step = np.linalg.solve(hess * np.outer(free, free) + _GENERAL_FLOOR * np.eye(15),
                               np.where(free, -grad, 0.0))
        ok = bool(np.sum((problem.jac[0] @ step) ** 2) <= _GENERAL_FLOOR * (step @ step))
    return problem.result(x, residual, int(steps.sum()), ok, residual_tol)


def fit_general(pairs, n_starts=20, seed=0, residual_tol=None) -> FitResult:
    """Fit a general Mueller matrix (M00 = 1, 15 free entries) to tensor pairs.

    Minimizes the stacked congruence residual over all pairs with entries
    box-constrained to [-1, 1].  Each residual is an exact quadratic form in
    vec(M), whose coefficients are built once per call; every solver step
    builds the Jacobian once and takes from it the gradient, the exact
    Hessian and the exact geodesic acceleration.  Three pairs whose first
    input is invertible and whose other two are rank 1 (such as the Bell
    tensor plus two product inputs) determine M in closed form.  Two such
    pairs (the Bell tensor plus one product input) leave a one-parameter
    orbit M0 exp(tX) of exact fits, whose points with M00 = 1 follow in
    closed form, and complete positivity picks one: the candidate whose Cloude
    coherency has the largest smallest eigenvalue.  The projected
    Levenberg-Marquardt solver polishes that candidate, and when it converges
    to a completely positive fit (``mueller_maps_physical``), that fit is the
    fit and ``iterations`` counts the polish steps.  So on noisy data whose
    box least-squares optimum is not completely positive the fit can be the
    completely positive local minimum reached from the closed form, above
    that optimum's residual.  No local test tells such data apart; where it
    was seen, the optimum lay far from the true M.  A polish that ends where
    the exact Hessian has negative curvature stopped on a saddle of the flat
    valley that one stabilizer generator leaves; a second polish then runs
    from the least-cost point on the line along that curvature, and the
    lower of the two wins.  Otherwise (no finite candidate, or a polish that
    does not converge or is not completely positive) the ``n_starts``
    uniform multistarts run as one batch of the solver with a budget of 1000
    steps per start; the first start with the least residual wins.  If that
    start ends with an entry on the bound, one more batch of ``n_starts``
    follows from the same stream and the best of both wins.  A best start
    that used up its budget counts as converged when its next step would
    only move along directions whose Gauss-Newton curvature is below the
    damping floor.  A single pair whose input tensor has a nonzero
    stabilizer algebra is rejected as underdetermined.  When the data leave
    the sign of the diagonal block free, the representative with M11 >= 0
    is returned.
    """
    pairs = [_check_tensor_pair(k_in, k_out) for k_in, k_out in pairs]
    if not pairs:
        raise ValueError("at least one (k_in, k_out) pair is required")
    if n_starts < 1:
        raise ValueError("n_starts must be at least 1")
    if len(pairs) == 1:
        report = stabilizer_dimension([pairs[0][0]])
        if report.lie_algebra_dim > 0:
            raise UnderdeterminedFitError(
                "underdetermined - see stabilizer report", report
            )
    problem = _Congruence(*map(np.array, zip(*pairs)), "general")
    starts = _closed_form_start(problem.k_in, problem.k_out)
    if starts is not None:
        h = _coherency(np.column_stack([np.ones(len(starts)), starts]).reshape(-1, 4, 4))
        x = starts[[np.argmax(np.linalg.eigvalsh(h)[:, 0])]]
        steps, converged = _polish(problem, x)
        if converged:
            fit = problem.result(x[0], problem.norm(x[0]), steps, True, residual_tol)
            if mueller_maps_physical(fit.mueller()):
                return fit
    return _random_start_fit(problem, n_starts, seed, residual_tol)


def stabilizer_dimension(tensors) -> StabilizerReport:
    """Dimension of the joint algebra {X : X K_i + K_i X^T = 0}.

    The map X -> X K + K X^T is the derivative of the congruence
    M -> M K M^T at M = I, that is the gradient vec(I)^T (Q + Q^T) of the
    quadratic form Q that ``fit_general`` fits with.  The algebra is the
    SVD null space of these operators, stacked over the inputs: singular
    values at most 1e-10 times the largest count, so zero tensors give all
    of gl(4), dimension 16.  The congruence is invariant under
    M -> M exp(tX) for every generator X, so identifiability of a Mueller
    fit from these inputs requires dimension zero.  Each tensor must be a
    finite 4x4 array (ValueError).
    """
    tensors = [_real(k, (4, 4), "correlation tensors") for k in tensors]
    if not tensors:
        raise ValueError("at least one tensor is required")
    q = _congruence_form(np.array(tensors), _COORDINATES["general"])
    op = np.eye(4).ravel() @ (q + q.transpose(0, 2, 1))
    _, sing, vt = np.linalg.svd(op)
    dim = int(np.sum(sing <= _NULL_SPACE_REL_TOL * sing[0]))
    return StabilizerReport(
        tensors=tuple(tensors),
        lie_algebra_dim=dim,
        identifiable=(dim == 0),
        generators=vt[16 - dim:].reshape(dim, 4, 4).copy(),
    )


def reconstruct_image(k_in, pixel_tensors, model="diagonal") -> PixelMap:
    """Fit the diagonal depolarizer model independently at every pixel.

    ``pixel_tensors`` is an (H, W, 4, 4) array of output tensors sharing the
    input tensor ``k_in``.  One call of the solver behind ``fit_diagonal``
    fits all pixels, and each pixel is bitwise what ``fit_diagonal``
    returns for it.  Pixels with non-finite tensors are recorded as NaN
    values with ``converged`` False; a bad ``model`` or ``k_in`` raises
    ValueError.
    """
    pixel_tensors = np.asarray(pixel_tensors, dtype=float)
    if pixel_tensors.ndim != 4 or pixel_tensors.shape[2:] != (4, 4):
        raise ValueError("pixel tensors must have shape (H, W, 4, 4)")
    height, width = pixel_tensors.shape[:2]
    ok = np.isfinite(pixel_tensors).all(axis=(2, 3))
    values = np.full((height, width, 1 if model == "isotropic" else 3), np.nan)
    residuals = np.full((height, width), np.nan)
    converged = np.zeros((height, width), dtype=bool)
    k_in, _ = _check_tensor_pair(k_in, k_in)  # checks k_in alone
    values[ok], residuals[ok], _, converged[ok] = _solve_diagonal(
        k_in, pixel_tensors[ok], model)
    return PixelMap(width, height, model, values, residuals, converged)


def mueller_similarity(m_a, m_b) -> float:
    """Normalized Frobenius agreement 1 - |A - B| / (|A| + |B|), in [0, 1], of two
    finite 4x4 matrices (ValueError otherwise); two zero matrices agree exactly (1.0)."""
    m_a, m_b = (_real(m, (4, 4), "Mueller matrices") for m in (m_a, m_b))
    scale = np.linalg.norm(m_a) + np.linalg.norm(m_b)
    if scale == 0:
        return 1.0
    return float(1.0 - np.linalg.norm(m_a - m_b) / scale)
