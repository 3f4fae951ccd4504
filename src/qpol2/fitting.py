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


@dataclass(frozen=True)
class FitResult:
    """Outcome of a Mueller fit.

    ``params`` holds 1 (isotropic), 3 (diagonal), or 15 (general, row-major
    without M00) numbers; M00 is always fixed to 1.  ``iterations`` counts
    solver steps for every model; for the general model it is the sum over
    all multistarts, or the polish steps alone when exact data from three
    inputs gave the start in closed form.  A diagonal or isotropic fit to a
    diagonal input tensor is the closed form and reports 0.  ``converged``
    means the solver met a tolerance within its step budget (for the
    general model, or ended it moving only along directions below the
    damping floor) and, when a residual tolerance was configured, the
    residual is below it.
    """

    model: str
    params: np.ndarray
    residual: float
    iterations: int
    converged: bool

    def mueller(self) -> np.ndarray:
        """Assemble the fitted 4x4 Mueller matrix."""
        m = np.eye(4)
        if self.model == "isotropic":
            m[1, 1] = m[2, 2] = m[3, 3] = self.params[0]
        elif self.model == "diagonal":
            m[1, 1], m[2, 2], m[3, 3] = self.params
        elif self.model == "general":
            m = _general_muellers(self.params[None])[0]
        else:
            raise ValueError(f"unknown model {self.model!r}")
        return m

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


def _diagonal_residual(k_in, k_out, x):
    """Diagonals v = (1, x), residuals V K_in V - K_out with V = diag(v), and
    their sums of squares, for parameters x of shape (P, 1 or 3)."""
    v = np.ones((len(x), 4))
    v[:, 1:] = x
    r = v[:, :, None] * k_in * v[:, None, :] - k_out
    return v, r, (r * r).sum(axis=2).sum(axis=1)


def _projected_lm(x, system, lo, max_steps, floor, accel=None):
    """Refine a batch of box-constrained least-squares problems in place.

    Row p of ``x`` (P, n) is the start of problem p, whose parameters lie in
    [lo, 1].  ``system(x, rows)`` returns the costs |r|^2, the gradients
    J^T r and the Hessians at points x of the problems ``rows``;
    ``system(x, rows, derivatives=False)`` returns the costs alone.
    Projected Levenberg-Marquardt steps on the box (Kanzow, Yamashita &
    Fukushima, J. Comput. Appl. Math. 172, 375, 2004) refine each problem
    until its step or first-order cost change falls to ``_FIT_TOL`` or it
    has taken ``max_steps`` steps; ``floor`` bounds the damping from below.
    ``accel(x, step, rows)``, when given, returns J^T times the second
    directional derivative of r along ``step``, and each step then takes the
    geodesic acceleration (Transtrum & Sethna, arXiv:1201.5885).  Returns
    step counts and converged flags.
    """
    damping = np.full(len(x), 1e-3)
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
    100 steps with the full Hessian.  Sums run over at most 4 terms in a
    fixed order, so a pixel's result does not depend on its batch.  Returns
    parameters (P, 1 or 3), residual norms, step counts and converged flags.
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
    k2 = k_in * k_in

    def system(xs, rows, derivatives=True):
        v, r, cost = _diagonal_residual(k_in, k_out[rows], xs)
        if not derivatives:
            return cost
        # With the Jacobian dr_ij/dv_a = delta_ia v_j K_aj + delta_ja v_i K_ia
        # and W = r K, the gradient is (W + W^T) v and the Hessian is
        # v_a v_b (K_ab^2 + K_ba^2) + delta_ab sum_j v_j^2 (K_aj^2 + K_ja^2)
        # (that is J^T J) plus W_ab + W_ba.
        w = r * k_in
        grad = (w * v[:, None, :]).sum(axis=2) + (w * v[:, :, None]).sum(axis=1)
        hess = v[:, :, None] * v[:, None, :] * (k2 + k2.T) + w + w.transpose(0, 2, 1)
        hess[:, range(4), range(4)] += ((k2 * (v * v)[:, None, :]).sum(axis=2)
                                        + (k2 * (v * v)[:, :, None]).sum(axis=1))
        grad, hess = grad[:, 1:], hess[:, 1:, 1:]
        if isotropic:
            grad, hess = grad.sum(1, keepdims=True), hess.sum(2).sum(1)[:, None, None]
        return cost, grad, hess

    if exact:
        steps, converged = np.zeros(len(x), dtype=int), np.ones(len(x), dtype=bool)
    else:
        steps, converged = _projected_lm(x, system, 0, 100, 1e-10)
    return x, np.sqrt(_diagonal_residual(k_in, k_out, x)[2]), steps, converged


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


def _general_muellers(x, m00=1.0) -> np.ndarray:
    """Matrices (n, 4, 4) with entry 00 ``m00`` and the 15 others, row-major,
    from the rows of x (n, 15)."""
    m = np.empty((len(x), 16))
    m[:, 0], m[:, 1:] = m00, x
    return m.reshape(-1, 4, 4)


def _congruence_form(k_in) -> np.ndarray:
    """Coefficients Q (16P, 16, 16) of the congruence as a quadratic form in
    y = vec(M), row-major: (M K_p M^T)_ab = y^T Q_pab y, with entries
    Q_pab[(i, c), (j, d)] = delta_ai delta_bj K_p,cd over the stack k_in
    (P, 4, 4)."""
    eye = np.eye(4)
    return np.einsum("ai,bj,pcd->pabicjd", eye, eye, k_in).reshape(-1, 16, 16)


_SIGN_FLIPS = [
    np.diag([1.0, s1, s2, s3])
    for s1 in (1.0, -1.0)
    for s2 in (1.0, -1.0)
    for s3 in (1.0, -1.0)
]
_GENERAL_FLOOR = 1e-13
# Relative residual |r| / |K_out| below which a closed-form start counts as
# exact data.  The closed form measured 8.6e-13 to 8.2e-10 on tomography
# outputs from 1e12 pairs per setting (counts rounded below 1e-12), and
# 1.8e-8 and more once tensor entries carry noise of sd 1e-8 (1.8e-6 and more
# at sd 1e-6).  The bound sits in that gap, a factor 12 above rounding.  On
# 1 160 fits below it, the polished start never ended more than 5e-16 above
# the residual of 20 random starts.
_EXACT_REL_RESIDUAL = 1e-8


class _Congruence:
    """The stacked residuals r = M K_in M^T - K_out of a general fit.

    Each residual r_q = y^T Q_q y - K_out,q is a quadratic form in
    y = vec(M) = (1, x), row-major, with gradient Sigma_q y and Hessian
    Sigma_q = Q_q + Q_q^T; the coefficients are built once.  ``system`` and
    ``accel`` are the callbacks of ``_projected_lm``.
    """

    def __init__(self, pairs):
        self.k_in = np.array([k for k, _ in pairs])
        self.k_out = np.array([k for _, k in pairs])
        self.target = self.k_out.reshape(-1)
        q = _congruence_form(self.k_in)
        sym = q + q.transpose(0, 2, 1)
        self.q_cols = q.reshape(-1, 256).T
        self.sym_rows = sym.transpose(1, 0, 2).reshape(16, -1)
        self.sym_flat = sym.reshape(-1, 256)
        self.jac = None

    def quadratic(self, x, m00=1.0):
        # y = vec(M) and Q(y (x) y) for each row of x.
        y = _general_muellers(x, m00).reshape(len(x), 16)
        return y, (y[:, :, None] * y[:, None, :]).reshape(len(x), 256) @ self.q_cols

    def cost(self, x):
        r = self.quadratic(x)[1] - self.target
        return (r * r).sum(axis=1)

    def system(self, x, rows, derivatives=True):
        if not derivatives:
            return self.cost(x)
        y, r = self.quadratic(x)
        r -= self.target
        # d r / dx without the column of the fixed M00; the Hessian
        # J^T J + sum_q r_q Sigma_q is exact.  Gauss-Newton alone (J^T J)
        # crawls on large residuals.
        self.jac = jac = (y @ self.sym_rows).reshape(len(x), -1, 16)[..., 1:]
        second = (r @ self.sym_flat).reshape(len(x), 16, 16)[:, 1:, 1:]
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
        M11 >= 0."""
        m = _general_muellers(x[None])[0]
        if m[1, 1] < 0:
            tol = residual + max(1e-12, 1e-9 * residual)
            for flip in _SIGN_FLIPS:
                cand = m @ flip
                if cand[1, 1] >= 0 and self.norm(cand.flat[1:]) <= tol:
                    x = cand.flatten()[1:]
                    residual = self.norm(x)
                    break
        converged = ok and (residual_tol is None or residual <= residual_tol)
        return FitResult("general", x, residual, steps, converged)


def _closed_form_start(k_in, k_out):
    """The Mueller entries (1, 15) that three exact pairs determine, or None.

    Applies when the first input K0 is invertible and the other two are
    rank 1, K_p = a b^T.  Then M K0 M^T = K0' makes M an isometry from the
    metric G = K0^-1 to G' = K0'^-1 (Givens & Kostinski, J. Mod. Opt. 40,
    471, 1993), and the rank-1 output x y^T of a product input gives
    M a = alpha x and M b = y / alpha, with alpha^4 = (a^T G a / x^T G' x)
    (y^T G' y / b^T G b).  The cross term a1^T G a2 = alpha1 alpha2
    x1^T G' x2 fixes the sign of alpha1 alpha2, and M00 > 0 the overall
    sign: M = [alpha1 x1, y1 / alpha1, alpha2 x2, y2 / alpha2] A^-1 with
    A = [a1 b1 a2 b2], scaled to M00 = 1 and clipped to the box.
    """
    if len(k_in) != 3:
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
            (a1, a2, x1, x2), (b1, b2, y1, y2) = u[:, :, 0] * root, vt[:, 0] * root
            g, g_out = np.linalg.inv(k_in[0]), np.linalg.inv(k_out[0])
            alpha1, alpha2 = (
                ((a @ g @ a) / (x @ g_out @ x) * (y @ g_out @ y) / (b @ g @ b)) ** 0.25
                for a, b, x, y in ((a1, b1, x1, y1), (a2, b2, x2, y2)))
            alpha2 *= np.sign((a1 @ g @ a2) * (x1 @ g_out @ x2))
            basis = np.column_stack([a1, b1, a2, b2])
            images = np.column_stack([alpha1 * x1, y1 / alpha1, alpha2 * x2, y2 / alpha2])
            m = np.linalg.solve(basis.T, images.T).T
        except np.linalg.LinAlgError:
            return None
        m /= m[0, 0]
    if not np.isfinite(m).all():
        return None
    return np.clip(m.reshape(1, 16)[:, 1:], -1.0, 1.0)


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
    tensor plus two product inputs) determine M in closed form; when that
    M reproduces the data to a relative residual of 1e-8 and the projected
    Levenberg-Marquardt solver then converges from it, it is the fit.
    Otherwise the ``n_starts`` uniform multistarts run as one batch of the
    solver with a budget of 1000 steps per start; the first start with the
    least residual wins.  If that start ends with an entry on the bound,
    one more batch of ``n_starts`` follows from the same stream and the
    best of both wins.  A best start that used up its budget counts as
    converged when its next step would only move along directions whose
    Gauss-Newton curvature is below the damping floor.  A single pair whose
    input tensor has a nonzero stabilizer algebra is rejected as
    underdetermined.  When the data leave the sign of the diagonal block
    free, the representative with M11 >= 0 is returned.
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
    problem = _Congruence(pairs)
    x = _closed_form_start(problem.k_in, problem.k_out)
    bound = _EXACT_REL_RESIDUAL * np.linalg.norm(problem.target)
    if x is not None and problem.norm(x[0]) <= bound:
        steps, converged = _projected_lm(x, problem.system, -1.0, 1000, _GENERAL_FLOOR,
                                         problem.accel)
        if converged[0]:
            return problem.result(x[0], problem.norm(x[0]), int(steps[0]), True,
                                  residual_tol)
    return _random_start_fit(problem, n_starts, seed, residual_tol)


def stabilizer_dimension(tensors) -> StabilizerReport:
    """Dimension of the joint algebra {X : X K_i + K_i X^T = 0}.

    The map X -> X K + K X^T is the derivative of the congruence
    M -> M K M^T at M = I, that is the gradient vec(I)^T (Q + Q^T) of the
    quadratic form Q that ``fit_general`` fits with.  The algebra is the
    SVD null space of these operators, stacked over the inputs, with
    relative threshold 1e-10; the congruence is invariant under
    M -> M exp(tX) for every generator X, so identifiability of a Mueller
    fit from these inputs requires dimension zero.  Each tensor must be a
    finite 4x4 array (ValueError).
    """
    tensors = [_real(k, (4, 4), "correlation tensors") for k in tensors]
    if not tensors:
        raise ValueError("at least one tensor is required")
    q = _congruence_form(np.array(tensors))
    op = np.eye(4).ravel() @ (q + q.transpose(0, 2, 1))
    _, sing, vt = np.linalg.svd(op)
    dim = int(np.sum(sing < _NULL_SPACE_REL_TOL * sing[0]))
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
    fits all pixels, each bitwise as ``fit_diagonal`` would.  Pixels with
    non-finite tensors are recorded as NaN values with ``converged`` False;
    a bad ``model`` or ``k_in`` raises ValueError.
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
