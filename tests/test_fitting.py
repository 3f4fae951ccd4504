"""Mueller fits, stabilizer diagnostics, and per-pixel image reconstruction."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.linalg import expm
from scipy.optimize import least_squares

import qpol2
from qpol2 import (
    FitResult,
    PixelMap,
    StabilizerReport,
    UnderdeterminedFitError,
    bell_state,
    correlation_tensor,
    fit_diagonal,
    fit_general,
    mueller_from_kraus,
    mueller_similarity,
    propagate_tensor,
    reconstruct_image,
    stabilizer_dimension,
)
from conftest import (
    K_BELL,
    PAULI_SIGNS,
    random_cp_diagonal,
    random_cptp_ensemble,
    random_density,
    random_product_density,
    random_realizable_mueller,
    random_retarder_ensemble,
)


def product_tensor(rng):
    return correlation_tensor(random_product_density(rng))


def mixed_reference_tensor():
    rho = 0.7 * bell_state() + 0.3 * np.diag([0.0, 1.0, 0.0, 0.0]).astype(complex)
    return correlation_tensor(rho)


def bound_cp_diagonal(rng):
    """CP diagonal depolarizer entries with at least one on the [0, 1] bound."""
    while True:
        pick = rng.integers(0, 3, size=3)  # 0: free, 1: at 0, 2: at 1
        d = np.where(pick == 1, 0.0, np.where(pick == 2, 1.0, rng.uniform(0.0, 1.0, 3)))
        if pick.any() and ((1 + PAULI_SIGNS @ d) / 4).min() >= 0:
            return d


def random_diagonal_tensor(rng):
    """diag(1, k) with entries k uniform in [-1, 1], each shrunk with
    probability 0.4 into the weak range |k| <= 0.05."""
    k = rng.uniform(-1.0, 1.0, 3)
    k[rng.random(3) < 0.4] *= 0.05
    return np.diag(np.concatenate([[1.0], k]))


def noisy_outputs(rng, k_in, n, noise, on_bound=False):
    """Congruence outputs of n random CP diagonal depolarizers (with an entry
    on the box bound if ``on_bound``) plus symmetric noise of standard
    deviation ``noise`` per entry (K00 stays exact)."""
    tensors = np.empty((n, 4, 4))
    for i in range(n):
        d = bound_cp_diagonal(rng) if on_bound else random_cp_diagonal(rng, lo=0.0)
        m = np.diag(np.concatenate([[1.0], d]))
        e = rng.normal(0.0, noise, size=(4, 4))
        e = (e + e.T) / np.sqrt(2.0)
        e[0, 0] = 0.0
        tensors[i] = m @ k_in @ m.T + e
    return tensors


# ----------------------------------------------------------- diagonal fits

def test_fit_diagonal_recovers_exact_parameters():
    for seed in range(25):
        rng = np.random.default_rng(seed)
        d = rng.uniform(0.05, 1.0, size=3)
        k_in = K_BELL if seed % 2 else mixed_reference_tensor()
        k_out = np.diag(np.concatenate([[1.0], d])) @ k_in @ np.diag(
            np.concatenate([[1.0], d])
        )
        fit = fit_diagonal(k_in, k_out)
        assert fit.model == "diagonal"
        assert fit.converged
        assert np.abs(fit.params - d).max() < 1e-8
        assert fit.residual < 1e-10


def test_fit_diagonal_reference_case():
    m = np.diag([1.0, 0.8, 0.6, 0.9])
    fit = fit_diagonal(K_BELL, propagate_tensor(m, K_BELL))
    assert np.abs(fit.params - [0.8, 0.6, 0.9]).max() < 1e-8
    assert np.allclose(fit.mueller(), m, atol=1e-8)


def test_fit_isotropic_model():
    for m in (0.05, 0.4, 0.97):
        k_out = propagate_tensor(np.diag([1.0, m, m, m]), K_BELL)
        fit = fit_diagonal(K_BELL, k_out, model="isotropic")
        assert fit.model == "isotropic"
        assert fit.params.size == 1
        assert abs(fit.params[0] - m) < 1e-8
        assert np.allclose(fit.mueller(), np.diag([1.0, m, m, m]), atol=1e-8)


def test_fit_diagonal_identity_roundtrip():
    fit = fit_diagonal(K_BELL, K_BELL)
    assert np.abs(fit.params - 1.0).max() < 1e-8


def test_fit_diagonal_validation():
    with pytest.raises(ValueError):
        fit_diagonal(K_BELL, K_BELL, model="full")
    with pytest.raises(ValueError):
        fit_diagonal(2 * K_BELL, K_BELL)  # K00 != 1
    with pytest.raises(ValueError):
        fit_diagonal(np.eye(3), np.eye(3))
    with pytest.raises(ValueError, match="correlation tensors must be finite"):
        fit_diagonal(K_BELL, np.full((4, 4), np.nan))


def test_fit_diagonal_residual_tolerance_gates_convergence():
    # Data produced by a rotation cannot be explained by a diagonal model.
    rng = np.random.default_rng(5)
    m_rot = random_realizable_mueller(rng)
    k_out = propagate_tensor(m_rot, K_BELL)
    fit = fit_diagonal(K_BELL, k_out, residual_tol=1e-12)
    assert fit.residual > 1e-3
    assert not fit.converged
    loose = fit_diagonal(K_BELL, k_out, residual_tol=np.inf)
    assert loose.converged


def test_fit_diagonal_converges_on_noisy_generic_inputs():
    # Off-model data drive parameters onto the [0, 1] bounds, where the
    # solver must hold them to converge within its step cap.
    rng = np.random.default_rng(4)
    for _ in range(40):
        k_in = correlation_tensor(random_density(rng))
        k_out = noisy_outputs(rng, k_in, 1, 0.05)[0]
        for model in ("diagonal", "isotropic"):
            assert fit_diagonal(k_in, k_out, model=model).converged


def test_fit_result_serialization():
    fit = fit_diagonal(K_BELL, K_BELL)
    d = fit.as_dict()
    assert d["model"] == "diagonal"
    assert len(d["params"]) == 3
    assert isinstance(d["converged"], bool)
    assert isinstance(d["iterations"], int)


# -------------------------------------------------------- residual forms

MODEL_SIZES = {"isotropic": 1, "diagonal": 3, "general": 15}


def test_fit_result_mueller_places_params_at_the_coordinates():
    rng = np.random.default_rng(21)
    for model, n in MODEL_SIZES.items():
        params = rng.uniform(-1.0, 1.0, n)
        m = FitResult(model, params, 0.0, 0, True).mueller()
        table = qpol2.fitting._COORDINATES[model]
        assert table.shape == (16, 1 + n)
        assert m[0, 0] == 1.0 and np.flatnonzero(table[:, 0]).tolist() == [0]
        for s, value in enumerate(params, 1):
            assert (m.flat[np.flatnonzero(table[:, s])] == value).all()
        assert np.count_nonzero(m.ravel()[1:]) == np.count_nonzero(table[1:].sum(axis=1))
    m = FitResult("isotropic", np.array([0.3]), 0.0, 0, True).mueller()
    assert np.array_equal(m, np.diag([1.0, 0.3, 0.3, 0.3]))
    m = FitResult("diagonal", np.array([0.3, 0.2, 0.1]), 0.0, 0, True).mueller()
    assert np.array_equal(m, np.diag([1.0, 0.3, 0.2, 0.1]))
    params = np.arange(1.0, 16.0)
    m = FitResult("general", params, 0.0, 0, True).mueller()
    assert np.array_equal(m, np.concatenate([[1.0], params]).reshape(4, 4))
    with pytest.raises(ValueError, match="unknown model"):
        FitResult("full", params, 0.0, 0, True).mueller()


@pytest.mark.parametrize("model", list(MODEL_SIZES))
def test_congruence_derivatives_match_finite_differences(model):
    # Row p of a batch fits target stack rows[p] of k_out; ``system`` returns
    # half the cost's gradient and Hessian, and ``accel`` J^T times the
    # second directional derivative of the residuals.
    rng = np.random.default_rng(22)
    n = MODEL_SIZES[model]
    k_in = np.array([correlation_tensor(random_density(rng))
                     for _ in range(3 if model == "general" else 1)])
    k_out = rng.normal(size=(5,) + k_in.shape)
    problem = qpol2.fitting._Congruence(k_in, k_out, model)
    rows = np.array([4, 0, 2])
    x = rng.uniform(-0.9, 0.9, (3, n))
    cost, grad, hess = problem.system(x, rows)
    _, r = problem.residual(x, rows)
    for p, row in enumerate(rows):
        m = FitResult(model, x[p], 0.0, 0, True).mueller()
        direct = np.array([m @ k @ m.T for k in k_in]) - k_out[row]
        assert np.abs(r[p] - direct.ravel()).max() < 1e-12
    assert np.array_equal(cost, problem.cost(x, rows))
    shared = qpol2.fitting._Congruence(k_in, k_out[2], model)
    assert np.array_equal(shared.cost(x), problem.cost(x, np.full(3, 2)))

    def half_cost(dx):
        return problem.cost(x + dx, rows) / 2

    def residual(dx):
        return problem.residual(x + dx, rows)[1]

    h, h2, eye = 1e-4, 1e-3, np.eye(n)
    fd_grad = np.stack([(half_cost(h * e) - half_cost(-h * e)) / (2 * h) for e in eye], 1)
    fd_hess = np.stack([np.stack(
        [(half_cost(h2 * (e + f)) - half_cost(h2 * (e - f)) - half_cost(h2 * (f - e))
          + half_cost(-h2 * (e + f))) / (4 * h2 * h2) for f in eye], 1) for e in eye], 1)
    assert np.abs(grad - fd_grad).max() <= 1e-7 * np.abs(grad).max()
    assert np.abs(hess - fd_hess).max() <= 1e-5 * np.abs(hess).max()
    v = rng.normal(size=(3, n))
    jac = np.stack([(residual(h * e) - residual(-h * e)) / (2 * h) for e in eye], 2)
    second = (residual(h2 * v) - 2 * residual(0 * v) + residual(-h2 * v)) / h2**2
    fd_accel = (second[:, None] @ jac)[:, 0]
    accel = problem.accel(x, v, rows)
    assert np.abs(accel - fd_accel).max() <= 1e-7 * np.abs(accel).max()


# ------------------------------------------------------------ general fits

def test_fit_general_identifiable_three_inputs():
    # A Bell tensor plus two product tensors pins the stabilizer algebra to
    # zero and the fit recovers the full 15-parameter matrix exactly.
    for seed in range(6):
        rng = np.random.default_rng(seed)
        m_true = random_realizable_mueller(rng)
        k_ins = [K_BELL, product_tensor(rng), product_tensor(rng)]
        assert stabilizer_dimension(k_ins).lie_algebra_dim == 0
        pairs = [(k, m_true @ k @ m_true.T) for k in k_ins]
        fit = fit_general(pairs, seed=seed)
        assert fit.converged
        assert np.linalg.norm(fit.mueller() - m_true) < 1e-8
        assert fit.mueller()[0, 0] == 1.0


def test_fit_general_single_input_is_underdetermined():
    with pytest.raises(UnderdeterminedFitError) as excinfo:
        fit_general([(K_BELL, K_BELL)])
    assert excinfo.value.report.lie_algebra_dim == 6
    assert not excinfo.value.report.identifiable
    # Even a generic mixed state keeps a two-dimensional stabilizer algebra.
    rng = np.random.default_rng(2)
    k_mixed = correlation_tensor(random_density(rng))
    with pytest.raises(UnderdeterminedFitError) as excinfo:
        fit_general([(k_mixed, k_mixed)])
    assert excinfo.value.report.lie_algebra_dim == 2


def test_fit_general_sign_convention():
    # All-diagonal data leaves diagonal sign flips free; the returned
    # representative must have M11 >= 0 and still reproduce the data.
    k_phi = np.diag([1.0, 1.0, 1.0, -1.0])
    m_true = np.diag([1.0, 0.8, 0.6, 0.48])
    pairs = [(K_BELL, propagate_tensor(m_true, K_BELL)),
             (k_phi, propagate_tensor(m_true, k_phi))]
    for seed in range(4):
        fit = fit_general(pairs, seed=seed)
        m = fit.mueller()
        assert m[1, 1] >= 0
        assert fit.residual < 1e-8
        for k_in, k_out in pairs:
            assert np.linalg.norm(m @ k_in @ m.T - k_out) < 1e-7


# A noisy recon unit: the Bell tensor and two product inputs, their outputs
# through a 1e5-path random-retarder ensemble measured with 1e4 pairs per
# setting, and that ensemble's Mueller matrix, each 4x4 row by row.
_FLIP_CASE = np.array([
    # Bell input
    0.99999999999999978, 0, 0, 0, 0, -0.99999999999999978, 0, 0, 0, 0, 0.99999999999999978,
    0, 0, 0, 0, 0.99999999999999978,
    # its output
    0.99999999999999967, -0.00080067612650721459, 0.0066389395489521094,
    -0.0015679907477425875, -0.0024687513900627164, -0.86683199145945355,
    -0.092878430674791804, -0.01771495929896362, -0.0037364885903652667,
    -0.096281304212446184, 0.67436946755037563, -0.0064054090120544849,
    0.00013344602108445987, -0.0065054935278680386, -0.0043036341799741629,
    0.70099194875672788,
    # first product input
    0.99999999999999978, 0.094211492529697405, 0.72992916882573455, 0.67699896836900597,
    -0.27329308452139267, -0.025747349390805141, -0.19948459403052143, -0.18501913628336641,
    0.91081232739116358, 0.085808988777968914, 0.66482848508886505, 0.61661900602159125,
    0.30940554976450274, 0.029149558640285372, 0.22584413576967299, 0.20946723799821357,
    # its output
    1, 0.077349847679615336, 0.25666540659536136, 0.79484556714326982, -0.28691823619666029,
    -0.015710124302327932, -0.061439594405287609, -0.23585199350692709, 0.51873429543483573,
    0.037424117764781523, 0.13668808787885509, 0.43387961130506303, 0.59224833781770503,
    0.045829534588956999, 0.15119743834915841, 0.47420559916390603,
    # second product input
    0.99999999999999967, -0.0016795541352856436, 0.40712270718203658, -0.91337192884097107,
    -0.12787123560680275, 0.00021476666254749421, -0.052059283610953577, 0.1167939971094637,
    -0.94525975194486767, 0.0015876149252981309, -0.38483670920201496, 0.86337372288962178,
    -0.30022149899285416, 0.00050423826013509809, -0.12222698942421989, 0.27421388961463089,
    # its output
    1, -0.049556377903606647, 0.67289000847117586, -0.49131704489723138,
    -0.086004726024343559, 0.01183735342636788, -0.055174104953407882, 0.052766507646350574,
    -0.58019751214944937, 0.047249097151009695, -0.39976146952605984, 0.29864238262963116,
    -0.60480850684381804, 0.024376922733960471, -0.41270230505149574, 0.29131927415399717,
    # the Mueller matrix of the ensemble
    1, 0, 0, 0, 0, 0.93249084164668483, -0.047809831320681645, 0.036382735051512662, 0,
    0.057723065764531442, 0.72282670537737914, -0.40949427557150786, 0,
    0.016765641339925096, 0.41083317556234289, 0.72638921829222114,
]).reshape(7, 4, 4)
_FLIP_CASE_PAIRS = list(zip(_FLIP_CASE[0:6:2], _FLIP_CASE[1:6:2]))
_FLIP_CASE_MUELLER = _FLIP_CASE[6]


def test_fit_general_takes_only_residual_preserving_sign_flips():
    # A diagonal sign flip is a symmetry of the data only where it leaves the
    # residual as it is.  Here the closed-form polish ends at residual 0.658,
    # with M11 < 0 and not completely positive; one flip of it reaches 0.390
    # and is completely positive, but it is no stationary point, and taking
    # it kept the fit at similarity 0.937.  The multistarts reach 0.0487.
    fit = fit_general(_FLIP_CASE_PAIRS)
    assert fit.residual < 0.05
    assert mueller_similarity(fit.mueller(), _FLIP_CASE_MUELLER) > 0.99


def test_fit_general_validation():
    with pytest.raises(ValueError):
        fit_general([])
    with pytest.raises(ValueError):
        fit_general([(2 * K_BELL, K_BELL)])
    with pytest.raises(ValueError):
        fit_general([(K_BELL, K_BELL)] * 2, n_starts=0)
    k_inf = K_BELL.copy()
    k_inf[1, 2] = np.inf
    with pytest.raises(ValueError, match="correlation tensors must be finite"):
        fit_general([(K_BELL, K_BELL), (k_inf, K_BELL)])


def scipy_general_residual(pairs, n_starts=20, seed=0):
    """Least residual, and its parameters, of scipy's trust-region fits of
    the general model from the multistarts of ``fit_general``: the bounds,
    Jacobian and tolerances of the original implementation, kept as the
    reference optimizer."""

    def mueller(x):
        return np.concatenate([[1.0], x]).reshape(4, 4)

    def fun(x):
        m = mueller(x)
        return np.concatenate([(m @ k_in @ m.T - k_out).ravel() for k_in, k_out in pairs])

    def jac(x):
        # d(M K M^T)/dM_ab = E_ab K M^T + M K E_ba, without the column of M00.
        m = mueller(x)
        cols = []
        for ab in range(1, 16):
            e = np.zeros(16)
            e[ab] = 1.0
            e = e.reshape(4, 4)
            cols.append(np.concatenate(
                [(e @ k_in @ m.T + m @ k_in @ e.T).ravel() for k_in, _ in pairs]))
        return np.array(cols).T

    rng = np.random.default_rng(seed)
    best, best_x = np.inf, None
    for _ in range(n_starts):
        res = least_squares(fun, rng.uniform(-1.0, 1.0, size=15), jac=jac,
                            bounds=(-1.0, 1.0), method="trf",
                            xtol=1e-14, ftol=1e-14, gtol=1e-14)
        if np.linalg.norm(res.fun) < best:
            best, best_x = float(np.linalg.norm(res.fun)), res.x
    return best, best_x


def general_pairs(seed, n_inputs, noise):
    """A random realizable M and its congruence outputs for a Bell tensor
    plus ``n_inputs - 1`` product inputs, with symmetric noise of standard
    deviation ``noise`` per entry (K00 stays exact)."""
    rng = np.random.default_rng(seed)
    m_true = random_realizable_mueller(rng)
    k_ins = [K_BELL] + [product_tensor(rng) for _ in range(n_inputs - 1)]
    pairs = []
    for k_in in k_ins:
        e = rng.normal(0.0, noise, size=(4, 4))
        e[0, 0] = 0.0
        pairs.append((k_in, m_true @ k_in @ m_true.T + (e + e.T) / np.sqrt(2.0)))
    return m_true, pairs


@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    # (number of inputs, noise sd): three inputs without and with noise, and
    # Bell plus one product input, which leaves a one-dimensional stabilizer.
    family=st.sampled_from([(3, 0.0), (3, 0.01), (3, 0.1), (2, 0.0)]),
)
# A large residual: Gauss-Newton steps alone leave every start short of
# convergence after 1000 steps.
@example(seed=1020048593, family=(3, 0.1))
# Two draws that took the random starts' second batch and flat-valley rule;
# test_random_start_fit_second_batch_and_flat_valley keeps those checks.
@example(seed=55265609, family=(2, 0.0))
@example(seed=55265610, family=(2, 0.0))
# The box optimum is not completely positive: the fit keeps the CP polish of
# the closed form, residual 0.5887 against 0.5806, similarity to the true M
# 0.908 against 0.616.
@example(seed=16, family=(3, 0.1))
def test_fit_general_residual_no_worse_than_scipy(seed, family):
    # Noiseless data have a reference on the same data, the true M; noisy
    # data are held to scipy's fit from the same multistarts, unless the fit
    # is CP where scipy's optimum is not and lies closer to the true M.
    n_inputs, noise = family
    m_true, pairs = general_pairs(seed, n_inputs, noise)
    fit = fit_general(pairs, seed=seed % 7)
    assert fit.converged
    if not noise:
        ref = np.sqrt(sum(np.sum((m_true @ k_in @ m_true.T - k_out) ** 2)
                          for k_in, k_out in pairs))
        assert fit.residual <= ref * (1 + 1e-9) + 1e-13
        return
    ref, x = scipy_general_residual(pairs, seed=seed % 7)
    if fit.residual <= ref * (1 + 1e-9) + 1e-13:
        return
    m_ref = np.append(1.0, x).reshape(4, 4)
    assert qpol2.mueller_maps_physical(fit.mueller())
    assert not qpol2.mueller_maps_physical(m_ref)
    assert np.linalg.norm(fit.mueller() - m_true) < np.linalg.norm(m_ref - m_true)


def random_start_fit(pairs, seed):
    problem = qpol2.fitting._Congruence(*map(np.array, zip(*pairs)), "general")
    return qpol2.fitting._random_start_fit(problem, 20, seed, None)


def test_random_start_fit_second_batch_and_flat_valley():
    # Bell plus one product input, noiseless: fit_general takes the orbit
    # closed form here, so the random starts are checked on their own.
    # All 20 starts stop at boundary stationary points (best residual 0.045,
    # two entries at the bound); the second batch reaches the exact fit.
    _, pairs = general_pairs(55265609, 2, 0.0)
    assert random_start_fit(pairs, 55265609 % 7).residual <= 1e-13
    # A nearly flat valley of exact fits: the best start ends its 1000 steps
    # at residual 4e-12, moving only along directions below the damping floor.
    _, pairs = general_pairs(55265610, 2, 0.0)
    assert random_start_fit(pairs, 55265610 % 7).converged


def test_fit_general_bell_plus_product_converges():
    # The exact fits form a curve (one stabilizer generator); without the
    # geodesic acceleration the best start stops at a residual of 2e-10.
    rng = np.random.default_rng(53)
    m_true = random_realizable_mueller(rng)
    pairs = [(k, m_true @ k @ m_true.T) for k in (K_BELL, product_tensor(rng))]
    fit = fit_general(pairs, seed=4)
    assert fit.converged
    assert fit.residual < 1e-12


def tomography_pairs(rng, ch, inputs, n_pairs, noisy):
    """(K_in, K_out) of each input state sent through ``ch`` with independent
    realizations, the output read back by 36-setting tomography."""
    pairs = []
    for i, rho in enumerate(inputs):
        out, _ = qpol2.apply_two_photon_independent(ch, rho)
        counts = qpol2.simulate_counts(out, n_pairs, seed=i, noisy=noisy)
        pairs.append((correlation_tensor(rho),
                      correlation_tensor(qpol2.reconstruct(counts))))
    return pairs


def test_fit_general_closed_form_for_exact_three_inputs():
    # Exact data from a Bell tensor plus two product inputs fix M in closed
    # form; the polish from it takes a few steps and no random start runs.
    for seed in range(6):
        rng = np.random.default_rng(seed)
        if seed % 2:
            m_true = random_realizable_mueller(rng)
            k_ins = [K_BELL, product_tensor(rng), product_tensor(rng)]
            pairs = [(k, m_true @ k @ m_true.T) for k in k_ins]
        else:  # counts of 1e12 pairs per setting, rounded to integers
            inputs = [bell_state()] + [random_product_density(rng) for _ in range(2)]
            pairs = tomography_pairs(rng, random_cptp_ensemble(rng), inputs, 10**12, False)
        fit = fit_general(pairs, seed=seed)
        assert fit.converged
        assert fit.iterations < 10
        assert fit.residual <= scipy_general_residual(pairs, seed=seed)[0] * (1 + 1e-9) + 1e-13


def test_fit_general_closed_form_for_exact_bell_plus_product():
    # Exact data from a Bell tensor plus one product input leave a
    # one-parameter orbit of exact fits, whose points with M00 = 1 are the
    # closed-form starts; the polish from them takes a few steps, where the
    # random starts take 600 to 2 100.  Of that orbit, complete positivity
    # picks the true M.
    for seed in range(6):
        m_true, pairs = general_pairs(seed, 2, 0.0)
        fit = fit_general(pairs, seed=seed)
        assert fit.converged
        assert fit.iterations < 100
        assert fit.residual <= random_start_fit(pairs, seed).residual * (1 + 1e-9) + 1e-13
        assert np.linalg.norm(fit.mueller() - m_true) < 1e-3
    # Counts of 1e12 pairs per setting, rounded to integers, through random
    # retarders and random CPTP channels: whichever path runs, the fit is
    # no worse than the random starts, and it is the channel's M.
    cases = [(seed, key, make) for seed in range(6)
             for key, make in ((seed, random_retarder_ensemble),
                               (100 + seed, random_cptp_ensemble))]
    # Found by a sweep of 1 000 retarder problems: the polished orbit start
    # stops on a saddle of the flat valley, 1.007e-13 above the random
    # starts, and the second polish from ``_saddle_exit`` leaves it.
    cases.append((5, [30, 887, 1506], random_retarder_ensemble))
    for seed, key, make in cases:
        rng = np.random.default_rng(key)
        ch = make(rng)
        pairs = tomography_pairs(rng, ch, [bell_state(), random_product_density(rng)],
                                 10**12, False)
        fit = fit_general(pairs, seed=seed)
        assert fit.converged
        assert fit.residual <= random_start_fit(pairs, seed).residual * (1 + 1e-9) + 1e-13
        assert np.linalg.norm(fit.mueller() - mueller_from_kraus(ch)[0]) < 1e-3


def test_fit_general_inexact_pairs_keep_only_a_cp_polish():
    # Inexact data keep the polished closed-form start only when its fit is
    # completely positive: seeds 1, 3, 4 and 9 (Bell plus one product input,
    # whose candidate nearest complete positivity lies near the true M) do,
    # in a few steps where the random starts take hundreds.  On seeds 0 and 5
    # the polished fit is not CP; seeds 2 and 8 have no finite candidate; and
    # for a mixed input, a singular output tensor or a product input given
    # first the closed form returns None.  Those fits are bitwise the
    # random-start fit.
    for seed in range(12):
        rng = np.random.default_rng(100 + seed)
        ch = random_cptp_ensemble(rng)
        inputs = [bell_state()] + [random_product_density(rng) for _ in range(2)]
        pairs = tomography_pairs(rng, ch, inputs, 10**4, True)
        if seed == 6:  # exact data on a mixed (rank > 1) third input
            inputs[2] = random_density(rng)
            pairs = tomography_pairs(rng, ch, inputs, 10**12, False)
        elif seed == 7:  # exact data from the complete depolarizer diag(1, 0, 0, 0)
            m0 = np.diag([1.0, 0.0, 0.0, 0.0])
            pairs = [(k, m0 @ k @ m0.T) for k, _ in pairs]
        elif seed == 8:  # Bell plus one product input, 1e4 pairs per setting
            pairs = pairs[:2]
        elif seed == 10:  # exact data on a mixed (rank-2) second input
            inputs[1] = (inputs[1] + random_product_density(rng)) / 2
            pairs = tomography_pairs(rng, ch, inputs[:2], 10**12, False)
        elif seed == 11:  # exact data, the product input given first
            pairs = tomography_pairs(rng, ch, inputs[1::-1], 10**12, False)
        elif seed in (1, 4, 9):  # symmetric noise of sd 1e-6 per entry on exact data
            m_true = random_realizable_mueller(rng)
            e = rng.normal(0.0, 1e-6, size=(3, 4, 4))
            e[:, 0, 0] = 0.0
            pairs = [(k, m_true @ k @ m_true.T + (ek + ek.T) / np.sqrt(2.0))
                     for (k, _), ek in zip(pairs, e)]
            if seed == 9:  # Bell plus one product input
                pairs = pairs[:2]
        problem = qpol2.fitting._Congruence(*map(np.array, zip(*pairs)), "general")
        starts = qpol2.fitting._closed_form_start(problem.k_in, problem.k_out)
        assert (starts is None) == (seed in (2, 6, 7, 8, 10, 11))
        fit = fit_general(pairs, seed=seed)
        ref = qpol2.fitting._random_start_fit(problem, 20, seed, None)
        if seed in (1, 3, 4, 9):
            assert fit.converged
            assert fit.iterations < 100
            assert qpol2.mueller_maps_physical(fit.mueller())
            assert fit.residual <= ref.residual * (1 + 1e-9) + 1e-13
            continue
        assert np.array_equal(fit.params, ref.params)
        assert (fit.residual, fit.iterations, fit.converged) == (
            ref.residual, ref.iterations, ref.converged)
        assert fit.iterations > 20


def test_fit_general_non_realizable_input_keeps_step_budget():
    # No Mueller matrix maps these inputs to these outputs; every start
    # stops within its budget of 1000 steps.
    rng = np.random.default_rng(3)
    pairs = [(K_BELL, np.diag([1.0, 0.9, 0.9, 0.9])),
             (product_tensor(rng), -product_tensor(rng))]
    fit = fit_general(pairs, n_starts=5, seed=1)
    assert 0 < fit.iterations <= 5 * 1000
    assert fit.residual > 1e-3
    assert np.all(np.abs(fit.params) <= 1.0)


# ------------------------------------------------------------- stabilizers

def test_stabilizer_dimension_reference_inputs():
    assert stabilizer_dimension([K_BELL]).lie_algebra_dim == 6
    # Rank-1 tensor with both photons in the same (here: fully mixed)
    # polarization state, K = e0 e0^T: X e0 = 0 leaves 12 free entries.
    assert stabilizer_dimension([np.diag([1.0, 0, 0, 0])]).lie_algebra_dim == 12
    rng = np.random.default_rng(0)
    # Generic product state with distinct arm polarizations, K = u v^T:
    # X u = a u and X v = -a v impose 8 constraints minus one shared scale.
    assert stabilizer_dimension([product_tensor(rng)]).lie_algebra_dim == 9
    assert stabilizer_dimension(
        [correlation_tensor(random_density(rng))]
    ).lie_algebra_dim == 2


def test_stabilizer_dimension_of_zero_tensor():
    # Every X solves X 0 + 0 X^T = 0: the algebra is all of gl(4).
    report = stabilizer_dimension([np.zeros((4, 4))])
    assert report.lie_algebra_dim == 16
    assert not report.identifiable
    assert report.generators.shape == (16, 4, 4)


def test_stabilizer_report_fields():
    report = stabilizer_dimension([K_BELL])
    assert isinstance(report, StabilizerReport)
    assert not report.identifiable
    assert report.generators.shape == (6, 4, 4)
    d = report.as_dict()
    assert d["n_inputs"] == 1
    assert d["lie_algebra_dim"] == 6
    payload = np.array(d["generators"])
    assert payload.shape == (6, 4, 4)


def test_stabilizer_generators_satisfy_defining_equation():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        tensors = [K_BELL, correlation_tensor(random_density(rng))][: 1 + seed % 2]
        report = stabilizer_dimension(tensors)
        for gen in report.generators:
            for k in tensors:
                assert np.linalg.norm(gen @ k + k @ gen.T) < 1e-10


def test_stabilizer_group_action_preserves_tensor():
    # exp(t X) K exp(t X)^T = K for every generator: the continuous family
    # of congruence transformations a single input cannot distinguish.
    report = stabilizer_dimension([K_BELL])
    for gen in report.generators:
        for t in (0.1, 0.5, 1.0):
            o = expm(t * gen)
            assert np.linalg.norm(o @ K_BELL @ o.T - K_BELL) < 1e-12


def test_stabilizer_dimension_monotone_in_inputs():
    # Adding inputs can only constrain the algebra further.
    for seed in range(10):
        rng = np.random.default_rng(seed)
        tensors = [
            K_BELL,
            product_tensor(rng),
            correlation_tensor(random_density(rng)),
        ]
        dims = [
            stabilizer_dimension(tensors[: n + 1]).lie_algebra_dim
            for n in range(3)
        ]
        assert dims[0] >= dims[1] >= dims[2]


def test_stabilizer_empty_input():
    with pytest.raises(ValueError):
        stabilizer_dimension([])


def test_bell_plus_product_keeps_one_generator():
    # The pair retains exactly one continuous degree of freedom, so a
    # two-input general fit is not strictly identifiable.
    for seed in range(20):
        rng = np.random.default_rng(seed)
        report = stabilizer_dimension([K_BELL, product_tensor(rng)])
        assert report.lie_algebra_dim == 1


# ------------------------------------------------------------------ images

def gradient_grid(height, width):
    """Smooth anisotropic depolarizer field and its output-tensor grid."""
    hh, ww = np.meshgrid(
        np.linspace(0.0, 1.0, height), np.linspace(0.0, 1.0, width), indexing="ij"
    )
    truth = np.empty((height, width, 3))
    truth[:, :, 0] = 0.2 + 0.75 * hh
    truth[:, :, 1] = 0.2 + 0.75 * ww
    truth[:, :, 2] = 0.2 + 0.35 * (hh + ww)
    diag = np.concatenate(
        [np.ones((height, width, 1)), truth], axis=2
    )
    tensors = np.einsum("hwa,ab,hwb->hwab", diag, K_BELL, diag)
    return truth, tensors


def test_reconstruct_image_recovers_gradient():
    truth, tensors = gradient_grid(9, 7)
    pm = reconstruct_image(K_BELL, tensors)
    assert isinstance(pm, PixelMap)
    assert (pm.width, pm.height) == (7, 9)
    assert pm.converged.all()
    assert np.abs(pm.values - truth).max() < 1e-8
    assert np.nanmax(pm.residuals) < 1e-10
    assert pm.plane(0).shape == (9, 7)


def test_reconstruct_image_isotropic_model():
    m = np.linspace(0.3, 0.9, 4).reshape(2, 2)
    diag = np.stack([np.ones((2, 2)), m, m, m], axis=2)
    tensors = np.einsum("hwa,ab,hwb->hwab", diag, K_BELL, diag)
    pm = reconstruct_image(K_BELL, tensors, model="isotropic")
    assert pm.values.shape == (2, 2, 1)
    assert np.abs(pm.values[:, :, 0] - m).max() < 1e-8


def test_reconstruct_image_flags_failed_pixels():
    truth, tensors = gradient_grid(3, 3)
    tensors[1, 1] = np.inf
    pm = reconstruct_image(K_BELL, tensors)
    assert not pm.converged[1, 1]
    assert np.isnan(pm.values[1, 1]).all()
    assert pm.converged.sum() == 8
    good = np.delete(pm.values.reshape(9, 3), 4, axis=0)
    assert np.abs(good - np.delete(truth.reshape(9, 3), 4, axis=0)).max() < 1e-8


def test_reconstruct_image_matches_fit_diagonal_bitwise():
    # On the random two-qubit input, 3 pixels differ from fit_diagonal when
    # the Hessian's curvature term is one 2-D product over the whole batch.
    rng = np.random.default_rng(11)
    random_input = correlation_tensor(random_density(np.random.default_rng(9)))
    for k_in in (K_BELL, mixed_reference_tensor(), random_input):
        tensors = np.concatenate(
            [noisy_outputs(rng, k_in, 6, noise) for noise in (0.0, 0.01, 0.1)]
        ).reshape(3, 6, 4, 4)
        for model in ("diagonal", "isotropic"):
            pm = reconstruct_image(k_in, tensors, model=model)
            for (h, w), ok in np.ndenumerate(pm.converged):
                fit = fit_diagonal(k_in, tensors[h, w], model=model)
                assert np.array_equal(pm.values[h, w], fit.params)
                assert pm.residuals[h, w] == fit.residual
                assert ok == fit.converged


def scipy_diagonal_residual(k_in, k_out, isotropic):
    """Residual of scipy's trust-region fit of the diagonal model: the seed
    guess, analytic Jacobian, bounds and tolerances of the original
    per-pixel implementation, kept as the reference optimizer."""
    guess = np.full(3, 0.5)
    for a in (1, 2, 3):
        if abs(k_in[a, a]) > 0.05:
            guess[a - 1] = np.clip(np.sqrt(abs(k_out[a, a] / k_in[a, a])), 0.0, 1.0)

    def mueller(x):
        return np.diag(np.concatenate([[1.0], np.broadcast_to(x, 3)]))

    def fun(x):
        m = mueller(x)
        return (m @ k_in @ m.T - k_out).ravel()

    def jac(x):
        m = mueller(x)
        cols = []
        for a in (1, 2, 3):
            e = np.zeros((4, 4))
            e[a, a] = 1.0
            cols.append((e @ k_in @ m.T + m @ k_in @ e).ravel())
        j = np.array(cols).T
        return j.sum(axis=1, keepdims=True) if isotropic else j

    x0 = np.array([guess.mean()]) if isotropic else guess
    res = least_squares(fun, x0, jac=jac, bounds=(0.0, 1.0), method="trf",
                        xtol=1e-14, ftol=1e-14, gtol=1e-14)
    return float(np.linalg.norm(res.fun))


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    reference=st.sampled_from(["bell", "mixed", "diagonal"]),
    noise=st.sampled_from([0.0, 0.008, 0.05, 0.2]),
    on_bound=st.booleans(),
    model=st.sampled_from(["diagonal", "isotropic"]),
)
@example(seed=1, reference="bell", noise=0.0, on_bound=True, model="diagonal")
@example(seed=2, reference="diagonal", noise=0.2, on_bound=True, model="isotropic")
# Weak axes, where the stationary point m_a = 0 of the residual is not its minimum.
@example(seed=4, reference="diagonal", noise=0.2, on_bound=False, model="diagonal")
def test_fit_diagonal_residual_no_worse_than_scipy(seed, reference, noise, on_bound, model):
    rng = np.random.default_rng(seed)
    k_in = (K_BELL if reference == "bell" else mixed_reference_tensor()
            if reference == "mixed" else random_diagonal_tensor(rng))
    k_out = noisy_outputs(rng, k_in, 1, noise, on_bound)[0]
    fit = fit_diagonal(k_in, k_out, model=model)
    assert fit.converged
    ref = scipy_diagonal_residual(k_in, k_out, model == "isotropic")
    assert fit.residual <= ref * (1 + 1e-9) + 1e-15


def test_fit_diagonal_closed_form_for_diagonal_inputs():
    # A diagonal input, weak axes (|K_aa| <= 0.05) included, is fitted by
    # the clipped ratio itself in 0 solver steps; an axis with K_aa = 0 does
    # not act on the residual and keeps 0.5.  An input with off-diagonal
    # entries still takes steps.
    rng = np.random.default_rng(15)
    inputs = (K_BELL, np.diag([1.0, 0.3, -0.7, 0.06]), np.diag([1.0, 0.03, -1.0, 1.0]),
              np.diag([1.0, 0.03, -0.02, 0.04]), np.diag([1.0, 0.0, 0.5, -0.01]))
    for k_in in inputs:
        k_diag = np.diagonal(k_in)[1:]
        for noise, on_bound in ((0.0, False), (0.0, True), (0.1, False), (0.1, True)):
            k_out = noisy_outputs(rng, k_in, 1, noise, on_bound)[0]
            ratio = np.diagonal(k_out)[1:] / np.where(k_diag != 0, k_diag, 1.0)
            fit = fit_diagonal(k_in, k_out)
            assert (fit.iterations, fit.converged) == (0, True)
            closed = np.where(k_diag != 0, np.sqrt(np.clip(ratio, 0, 1)), 0.5)
            assert np.array_equal(fit.params, closed)
            iso = fit_diagonal(k_in, k_out, model="isotropic")
            assert (iso.iterations, iso.converged) == (0, True)
            pm = reconstruct_image(k_in, k_out[None, None])
            assert np.array_equal(pm.values[0, 0], fit.params)
    mixed = mixed_reference_tensor()
    k_out = noisy_outputs(rng, mixed, 1, 0.0)[0]
    for model in ("diagonal", "isotropic"):
        assert fit_diagonal(mixed, k_out, model=model).iterations > 0


@pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0), (2, 3)])
def test_reconstruct_image_of_empty_and_all_nan_grids(shape):
    # No pixel to fit: the map keeps its shape, NaN values and no converged pixel.
    for k_in in (K_BELL, mixed_reference_tensor()):
        for model in ("diagonal", "isotropic"):
            pm = reconstruct_image(k_in, np.full(shape + (4, 4), np.nan), model=model)
            assert (pm.height, pm.width) == shape
            assert pm.values.shape == shape + (1 if model == "isotropic" else 3,)
            assert pm.residuals.shape == pm.converged.shape == shape
            assert np.isnan(pm.values).all() and np.isnan(pm.residuals).all()
            assert not pm.converged.any()


def test_reconstruct_image_validates_shape():
    with pytest.raises(ValueError):
        reconstruct_image(K_BELL, np.zeros((3, 3, 3, 3)))
    _, tensors = gradient_grid(2, 2)
    with pytest.raises(ValueError):
        reconstruct_image(K_BELL, tensors, model="bogus")
    with pytest.raises(ValueError):
        reconstruct_image(2 * K_BELL, tensors)  # K00 != 1


# -------------------------------------------------------------- similarity

def test_mueller_similarity_bounds_and_reference():
    assert mueller_similarity(np.eye(4), np.eye(4)) == 1.0
    # |A - B|_F = sqrt(3), |A|_F = 2, |B|_F = 1.
    value = mueller_similarity(np.eye(4), np.diag([1.0, 0.0, 0.0, 0.0]))
    assert np.isclose(value, 1 - np.sqrt(3) / 3, atol=1e-14)
    for seed in range(10):
        rng = np.random.default_rng(seed)
        a = random_realizable_mueller(rng)
        b = random_realizable_mueller(rng)
        s = mueller_similarity(a, b)
        assert 0.0 <= s <= 1.0
        assert np.isclose(s, mueller_similarity(b, a), atol=1e-14)


def test_mueller_similarity_of_zero_matrices():
    # |A| + |B| = 0 would be 0 / 0 (a warning and NaN): two zero matrices agree.
    zero = np.zeros((4, 4))
    assert mueller_similarity(zero, zero) == 1.0
    assert mueller_similarity(zero, np.eye(4)) == 0.0
    assert mueller_similarity(np.eye(4), zero) == 0.0
