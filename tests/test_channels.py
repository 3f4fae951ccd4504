"""Kraus ensembles, channel application, and the tensor congruence law."""

import warnings

import numpy as np
import pytest

import qpol2
from qpol2 import (
    ChannelError,
    KrausEnsemble,
    NotCompletelyPositiveError,
    apply_one_photon,
    apply_two_photon_correlated,
    apply_two_photon_independent,
    bell_state,
    check_density,
    compose,
    correlation_tensor,
    kraus_from_diagonal_mueller,
    metrics_report,
    mueller_from_kraus,
    mueller_maps_physical,
    normalize_mueller,
    propagate_tensor,
)
from conftest import (
    K_BELL,
    PAULI_SIGNS,
    faint_polarizer_case,
    random_cptp_ensemble,
    random_density,
    random_product_density,
    random_pure_density,
)


# ---------------------------------------------------------------- ensembles

def test_ensemble_validation():
    with pytest.raises(ChannelError):
        KrausEnsemble(np.array([0.5, 0.4]), np.stack([np.eye(2)] * 2))  # sum != 1
    with pytest.raises(ChannelError):
        KrausEnsemble(np.array([1.5, -0.5]), np.stack([np.eye(2)] * 2))  # negative
    with pytest.raises(ChannelError):
        KrausEnsemble(np.array([1.0]), np.eye(2))  # jones must be (K, 2, 2)
    with pytest.raises(ChannelError):
        KrausEnsemble(np.array([1.0]), 2 * np.eye(2)[None])  # gain > 1
    with pytest.raises(ChannelError):  # M00 = 0.51, but M00 + |D| = 1.0201
        KrausEnsemble(np.array([1.0]), 1.01 * np.diag([1.0, 0.0])[None])
    with pytest.raises(ChannelError):
        KrausEnsemble(np.array([np.nan]), np.eye(2)[None])  # NaN passes < and >
    with pytest.raises(ChannelError):
        KrausEnsemble(np.array([1.0]), np.full((1, 2, 2), np.nan))
    with pytest.raises(ChannelError):
        KrausEnsemble(np.zeros(0), np.zeros((0, 2, 2)))  # no paths
    with pytest.raises(ChannelError, match="channel has zero transmittance"):
        mueller_from_kraus(KrausEnsemble(np.array([0.5, 0.5]), np.zeros((2, 2, 2))))


def test_weight_just_below_zero_counts_as_zero():
    # The nonnegativity check allows -1e-12; such a weight must not turn
    # sqrt(w) and with it every Mueller matrix and output into NaN.
    ch = KrausEnsemble(np.array([1 + 5e-13, -5e-13]), np.stack([np.eye(2)] * 2))
    rho2, bell = random_pure_density(np.random.default_rng(3), 2), bell_state()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        m, trans = mueller_from_kraus(ch)
        outputs = [
            (apply_one_photon(ch, rho2), rho2),
            (apply_one_photon(ch, bell, arm="first"), bell),
            (apply_one_photon(ch, bell, arm="second"), bell),
            (apply_two_photon_independent(ch, bell), bell),
            (apply_two_photon_correlated(ch, bell), bell),
        ]
    assert np.array_equal(m, np.eye(4))
    assert abs(trans - 1) <= 1e-12
    for (rho_out, t), rho in outputs:
        assert abs(t - 1) <= 1e-12
        assert np.allclose(rho_out, rho, atol=1e-12)


def test_identity_ensemble_kraus():
    ch = KrausEnsemble.identity()
    assert np.allclose(ch.kraus(), np.eye(2)[None])
    assert np.allclose(ch.kraus_gram(), np.eye(2), atol=1e-15)


def test_random_cptp_gram_is_identity():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        ch = random_cptp_ensemble(rng, k=int(rng.integers(1, 6)))
        assert np.allclose(ch.kraus_gram(), np.eye(2), atol=1e-12)


def _random_lossy(rng, k, top):
    """Unequal-weight ensemble whose sum_k U_k^dagger U_k has largest eigenvalue top."""
    w = rng.uniform(0.1, 1.0, size=k)
    w /= w.sum()
    j = rng.normal(size=(k, 2, 2)) + 1j * rng.normal(size=(k, 2, 2))
    gram = np.einsum("k,kba,kbc->ac", w, j.conj(), j)
    return w, j * np.sqrt(top / np.linalg.eigvalsh(gram).max())


def _explicit_gram(w, j):
    u = np.sqrt(w)[:, None, None] * j
    return sum(op.conj().T @ op for op in u)


def test_kraus_gram_matches_explicit_sum():
    rng = np.random.default_rng(41)
    for _ in range(50):
        w, j = _random_lossy(rng, int(rng.integers(1, 40)), rng.uniform(0.2, 1.0))
        gram = KrausEnsemble(w, j).kraus_gram()
        assert np.allclose(gram, _explicit_gram(w, j), rtol=0, atol=1e-12)


def test_cptp_check_is_largest_eigenvalue_of_gram():
    rng = np.random.default_rng(42)
    tops = np.concatenate([rng.uniform(0.9, 1.1, size=150),
                           1 + 1e-8 + rng.uniform(-1e-9, 1e-9, size=50)])
    checked = 0
    for top in tops:
        w, j = _random_lossy(rng, int(rng.integers(1, 20)), top)
        bound = np.linalg.eigvalsh(_explicit_gram(w, j)).max() - (1 + 1e-8)
        if abs(bound) < 1e-12:
            continue
        checked += 1
        if bound > 0:
            with pytest.raises(ChannelError, match="exceeds the identity"):
                KrausEnsemble(w, j)
        else:
            KrausEnsemble(w, j)
    assert checked > 150


def test_ensemble_arrays_are_read_only_views():
    w, j = np.array([0.25, 0.75]), np.stack([np.eye(2), np.diag([1, -1])]).astype(complex)
    ch = KrausEnsemble(w, j)
    with pytest.raises(ValueError):
        ch.jones[0, 0, 0] = 2.0
    with pytest.raises(ValueError):
        ch.weights[0] = 0.5
    assert np.shares_memory(ch.jones, j) and np.shares_memory(ch.weights, w)
    w[0], j[0, 0, 0] = 0.5, 2.0  # the caller's own arrays stay writable


def test_pauli_ensemble_identity_weights():
    ch = KrausEnsemble.pauli([1.0, 0.0, 0.0, 0.0])
    rho = random_density(np.random.default_rng(0), 2)
    out, trans = apply_one_photon(ch, rho)
    assert np.allclose(out, rho, atol=1e-14)
    assert np.isclose(trans, 1.0)


# ----------------------------------------------------------- channel action

def test_unitary_channel_conjugates():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        u, _ = np.linalg.qr(g)
        ch = KrausEnsemble.from_unitary(u)
        rho = random_density(rng, 2)
        out, trans = apply_one_photon(ch, rho)
        assert np.allclose(out, u @ rho @ u.conj().T, atol=1e-13)
        assert np.isclose(trans, 1.0)


def test_one_photon_arm_selection():
    ch = KrausEnsemble.from_unitary(np.diag([1.0, -1.0]))  # H/V phase flip
    rho = bell_state()
    out_first, _ = apply_one_photon(ch, rho, arm="first")
    out_second, _ = apply_one_photon(ch, rho, arm="second")
    u4_first = np.kron(np.diag([1.0, -1.0]), np.eye(2))
    u4_second = np.kron(np.eye(2), np.diag([1.0, -1.0]))
    assert np.allclose(out_first, u4_first @ rho @ u4_first.conj().T, atol=1e-14)
    assert np.allclose(out_second, u4_second @ rho @ u4_second.conj().T, atol=1e-14)
    with pytest.raises(ChannelError):
        apply_one_photon(ch, rho)  # arm is mandatory for two-photon input


def test_polarizer_annihilates_orthogonal_state():
    polarizer = KrausEnsemble(np.array([1.0]), np.diag([1.0, 0.0])[None])
    v_state = np.diag([0.0, 1.0]).astype(complex)
    with pytest.raises(ChannelError):
        apply_one_photon(polarizer, v_state)
    # A faint output (transmittance 1e-8) is still the polarizer's pure state.
    for seed in range(10):
        p = random_pure_density(np.random.default_rng(seed), 2)
        rho = 1e-8 * p + (1 - 1e-8) * (np.eye(2) - p)
        out, trans = apply_one_photon(KrausEnsemble(np.array([1.0]), p[None]), rho)
        assert np.isclose(trans, 1e-8, rtol=1e-6)
        assert np.allclose(out, p, atol=1e-6)


@pytest.mark.parametrize("apply", [
    apply_two_photon_independent,
    apply_two_photon_correlated,
    lambda ch, rho: apply_one_photon(ch, rho, arm="first"),
], ids=["independent", "correlated", "one-photon"])
def test_faint_outputs_are_physical_states(apply):
    # Rounding leaves eigenvalues near -1e-16 / T in an output of
    # transmittance T (here down to 1e-14); every output is projected onto
    # the physical set, silently, so the metrics accept it.
    for seed in range(100):
        ch, rho = faint_polarizer_case(np.random.default_rng(seed))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out, _ = apply(ch, rho)
        check_density(out)
        metrics_report(out, rho)


def test_two_photon_independent_matches_double_sum():
    # The Mueller congruence must equal the explicit
    # sum_{k,l} (U_k (x) U_l) rho (U_k (x) U_l)^dagger; the one-photon modes
    # (either arm of a pair, or a lone photon) the sum with U_l = I.
    for seed in range(15):
        rng = np.random.default_rng(seed)
        ch = random_cptp_ensemble(rng, k=int(rng.integers(1, 4)))
        rho = random_density(rng)
        rho1 = random_density(rng, 2)
        u = ch.kraus()
        eye = [np.eye(2)]
        cases = [
            (apply_two_photon_independent(ch, rho), rho, u, u),
            (apply_one_photon(ch, rho, arm="first"), rho, u, eye),
            (apply_one_photon(ch, rho, arm="second"), rho, eye, u),
            (apply_one_photon(ch, rho1), rho1, u, [np.eye(1)]),
        ]
        for (out, trans), rho_in, first, second in cases:
            direct = np.zeros_like(rho_in)
            for uk in first:
                for ul in second:
                    big = np.kron(uk, ul)
                    direct += big @ rho_in @ big.conj().T
            direct_trans = np.trace(direct).real
            assert np.isclose(trans, direct_trans, atol=1e-12)
            assert np.allclose(out, direct / direct_trans, atol=1e-12)


def test_two_photon_correlated_matches_same_index_sum():
    for seed in range(15):
        rng = np.random.default_rng(seed)
        ch = random_cptp_ensemble(rng, k=int(rng.integers(2, 5)))
        rho = random_density(rng)
        out, trans = apply_two_photon_correlated(ch, rho)
        direct = np.zeros((4, 4), dtype=complex)
        for wk, jk in zip(ch.weights, ch.jones):
            big = np.sqrt(wk) * np.kron(jk, jk)
            direct += big @ rho @ big.conj().T
        direct_trans = np.trace(direct).real
        assert np.isclose(trans, direct_trans, atol=1e-12)
        assert np.allclose(out, direct / direct_trans, atol=1e-12)


def test_two_photon_correlated_sums_across_path_chunks():
    # The second moment is accumulated over blocks of paths; an ensemble of
    # two full blocks plus a partial one with unequal weights must still
    # equal the explicit same-index Kraus sum.
    rng = np.random.default_rng(11)
    ch = random_cptp_ensemble(rng, k=2 * qpol2.channels._CHUNK + 7)
    assert np.ptp(ch.weights) > 0
    rho = random_density(rng)
    out, trans = apply_two_photon_correlated(ch, rho)
    direct = np.zeros((4, 4), dtype=complex)
    for wk, jk in zip(ch.weights, ch.jones):
        big = np.sqrt(wk) * np.kron(jk, jk)
        direct += big @ rho @ big.conj().T
    direct_trans = np.trace(direct).real
    assert np.isclose(trans, direct_trans, atol=1e-12)
    assert np.allclose(out, direct / direct_trans, atol=1e-12)


def test_two_photon_correlated_transmittance_ignores_path_count():
    # Realization k occurs with probability w_k: splitting every path into
    # two copies of half its weight describes the same channel, and a
    # lossless uniform Pauli ensemble transmits everything.
    rng = np.random.default_rng(12)
    for ch in (random_cptp_ensemble(rng, k=5), KrausEnsemble.pauli([0.25] * 4)):
        halves = KrausEnsemble(np.repeat(ch.weights, 2) / 2, np.repeat(ch.jones, 2, axis=0))
        rho = random_density(rng)
        out, trans = apply_two_photon_correlated(ch, rho)
        out_halves, trans_halves = apply_two_photon_correlated(halves, rho)
        assert np.isclose(trans_halves, trans, rtol=1e-12)
        assert np.allclose(out_halves, out, atol=1e-12)
    assert np.isclose(trans, 1.0, rtol=1e-12)


def test_correlated_pauli_channel_preserves_bell_state():
    # Identical Pauli kicks on both arms leave |Psi+> invariant, unlike
    # independent kicks, which depolarize it.
    ch = KrausEnsemble.pauli([0.25, 0.25, 0.25, 0.25])
    rho = bell_state()
    out_corr, _ = apply_two_photon_correlated(ch, rho)
    out_ind, _ = apply_two_photon_independent(ch, rho)
    assert np.allclose(out_corr, rho, atol=1e-14)
    assert np.allclose(out_ind, np.eye(4) / 4, atol=1e-14)


def test_correlated_mode_sees_the_pauli_decomposition():
    """kraus_from_diagonal_mueller builds its Kraus operators from the Pauli
    sign table, not from an eigendecomposition of the Cloude coherency H.

    The correlated mode depends on the decomposition, not only on M.  With
    degenerate Pauli weights (an isotropic depolarizer), eigh may return any
    basis of the degenerate eigenspace: every such basis gives the same M,
    but only the Pauli operators act on |Psi+> as a phase and keep it pure.
    """
    bell = bell_state()
    psi = np.array([0.0, 1.0, 1.0, 0.0]) / np.sqrt(2)
    grid = np.linspace(0.0, 1.0, 5)
    diagonals = [d for d in np.array(np.meshgrid(grid, grid, grid)).reshape(3, -1).T
                 if ((1 + PAULI_SIGNS @ d) / 4).min() >= 0]
    assert any(len(set(d)) == 1 for d in diagonals)
    assert any(len(set(d)) == 3 for d in diagonals)
    for d in diagonals:
        out, trans = apply_two_photon_correlated(kraus_from_diagonal_mueller(*d), bell)
        assert abs(psi @ out @ psi - 1.0) <= 1e-12, d
        assert np.isclose(trans, 1.0, rtol=1e-12)

    # A unitary mix of the three degenerate Pauli operators at m = 0.5: the
    # same channel, but |Psi+> comes out mixed.
    pauli = kraus_from_diagonal_mueller(0.5, 0.5, 0.5)
    rng = np.random.default_rng(5)
    v, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    kraus = pauli.kraus()
    mixed = np.concatenate([kraus[:1], np.einsum("jk,kab->jab", v, kraus[1:])])
    w = np.einsum("kab,kab->k", mixed, mixed.conj()).real / 2
    rotated = KrausEnsemble(w, mixed / np.sqrt(w)[:, None, None])
    assert np.allclose(mueller_from_kraus(rotated)[0], mueller_from_kraus(pauli)[0],
                       atol=1e-14)
    out, _ = apply_two_photon_correlated(rotated, bell)
    assert np.einsum("ab,ba->", out, out).real < 0.99


# ---------------------------------------------------------- Mueller matrix

def test_mueller_identity_channel():
    m, trans = mueller_from_kraus(KrausEnsemble.identity())
    assert np.allclose(m, np.eye(4), atol=1e-15)
    assert np.isclose(trans, 1.0)


def test_mueller_of_hv_waveplate():
    # The Jones phase flip diag(1, -1) preserves H/V and flips D/A and R/L.
    m, _ = mueller_from_kraus(KrausEnsemble.from_unitary(np.diag([1.0, -1.0])))
    assert np.allclose(m, np.diag([1.0, 1.0, -1.0, -1.0]), atol=1e-14)


def test_mueller_transmittance_of_lossy_channel():
    ch = KrausEnsemble(np.array([1.0]), (0.5 * np.eye(2))[None])
    m, trans = mueller_from_kraus(ch)
    assert np.isclose(trans, 0.25)
    assert np.allclose(m, np.eye(4), atol=1e-14)


def test_pauli_weights_to_diagonal_mueller():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        p = rng.dirichlet(np.ones(4))
        m, trans = mueller_from_kraus(KrausEnsemble.pauli(p))
        expected = np.diag(
            [
                1.0,
                p[0] + p[1] - p[2] - p[3],
                p[0] - p[1] + p[2] - p[3],
                p[0] - p[1] - p[2] + p[3],
            ]
        )
        assert np.isclose(trans, 1.0)
        assert np.allclose(m, expected, atol=1e-13)


def test_congruence_law_for_depolarizers():
    # For a Pauli channel (no diattenuation) the tensor of the two-photon
    # output equals M K M^T directly.
    for seed in range(25):
        rng = np.random.default_rng(seed)
        ch = KrausEnsemble.pauli(rng.dirichlet(np.ones(4)))
        rho = random_density(rng)
        m, _ = mueller_from_kraus(ch)
        out, _ = apply_two_photon_independent(ch, rho)
        pred = propagate_tensor(m, correlation_tensor(rho))
        assert np.linalg.norm(correlation_tensor(out) - pred) < 1e-12


def test_congruence_law_general_channels():
    # With diattenuation the congruence prediction needs its intensity
    # renormalized, because the output tensor is defined for a trace-1 state.
    for seed in range(50):
        rng = np.random.default_rng(seed)
        ch = random_cptp_ensemble(rng, k=int(rng.integers(1, 5)))
        rho = random_density(rng) if seed % 2 else random_product_density(rng)
        m, _ = mueller_from_kraus(ch)
        k_in = correlation_tensor(rho)
        out, _ = apply_two_photon_independent(ch, rho)
        pred = m @ k_in @ m.T
        pred /= pred[0, 0]
        assert np.linalg.norm(correlation_tensor(out) - pred) < 1e-12


def test_one_photon_congruence_left_action():
    # One traversed arm transforms the tensor as K -> M K (up to intensity).
    for seed in range(20):
        rng = np.random.default_rng(seed)
        ch = random_cptp_ensemble(rng, k=3)
        rho = random_density(rng)
        m, _ = mueller_from_kraus(ch)
        out, _ = apply_one_photon(ch, rho, arm="first")
        pred = m @ correlation_tensor(rho)
        pred /= pred[0, 0]
        assert np.linalg.norm(correlation_tensor(out) - pred) < 1e-12


def test_propagate_tensor_requires_normalized_mueller():
    with pytest.raises(ValueError):
        propagate_tensor(2 * np.eye(4), K_BELL)
    assert np.allclose(propagate_tensor(np.eye(4), K_BELL), K_BELL)


def test_propagate_bell_through_diagonal():
    m = np.diag([1.0, 0.7, 0.5, 0.3])
    out = propagate_tensor(m, K_BELL)
    assert np.allclose(out, np.diag([1.0, -0.49, 0.25, 0.09]), atol=1e-15)


# ------------------------------------------------- diagonal depolarizers

def test_kraus_from_diagonal_mueller_roundtrip():
    ch = kraus_from_diagonal_mueller(0.8, 0.75, 0.9)
    assert np.allclose(ch.weights, [0.8625, 0.0375, 0.0125, 0.0875], atol=1e-15)
    m, trans = mueller_from_kraus(ch)
    assert np.isclose(trans, 1.0)
    assert np.allclose(m, np.diag([1.0, 0.8, 0.75, 0.9]), atol=1e-14)


def test_kraus_from_diagonal_mueller_identity_and_isotropic():
    assert np.allclose(
        kraus_from_diagonal_mueller(1.0, 1.0, 1.0).weights, [1, 0, 0, 0]
    )
    for m in (0.0, 0.3, 0.77, 1.0):
        ch = kraus_from_diagonal_mueller(m, m, m)
        got, _ = mueller_from_kraus(ch)
        assert np.allclose(got, np.diag([1.0, m, m, m]), atol=1e-14)


def test_kraus_from_diagonal_mueller_rejects_non_cp():
    # (0.8, 0.6, 0.9) gives Pauli weight p2 = (1 - 0.8 + 0.6 - 0.9)/4 < 0:
    # a valid Mueller triple that no completely positive channel realizes.
    with pytest.raises(NotCompletelyPositiveError):
        kraus_from_diagonal_mueller(0.8, 0.6, 0.9)
    with pytest.raises(ValueError):
        kraus_from_diagonal_mueller(1.2, 0.5, 0.5)
    with pytest.raises(ValueError):
        kraus_from_diagonal_mueller(-0.1, 0.5, 0.5)


def test_cp_boundary_is_exactly_representable():
    # On the CP boundary one weight is exactly zero.
    ch = kraus_from_diagonal_mueller(1.0, 0.5, 0.5)
    assert np.isclose(ch.weights.min(), 0.0, atol=1e-15)


# ----------------------------------------------------------- composition

def test_compose_multiplies_mueller_matrices():
    for seed in range(15):
        rng = np.random.default_rng(seed)
        ch1 = random_cptp_ensemble(rng, k=2)
        ch2 = random_cptp_ensemble(rng, k=3)
        m1, _ = mueller_from_kraus(ch1)
        m2, _ = mueller_from_kraus(ch2)
        m12, _ = mueller_from_kraus(compose(ch1, ch2))
        expected = normalize_mueller(m1 @ m2)
        assert np.allclose(m12, expected, atol=1e-12)


def test_compose_acts_right_to_left():
    polarizer_h = KrausEnsemble(np.array([1.0]), np.diag([1.0, 0.0])[None])
    rot90 = KrausEnsemble.from_unitary(np.array([[0.0, -1.0], [1.0, 0.0]]))
    rho_h = np.diag([1.0, 0.0]).astype(complex)
    # Polarize along H first, then rotate: H light survives fully.
    out, trans = apply_one_photon(compose(rot90, polarizer_h), rho_h)
    assert np.isclose(trans, 1.0)
    assert np.allclose(out, np.diag([0.0, 1.0]), atol=1e-14)


# ----------------------------------------------------------- physicality

def test_normalize_mueller():
    assert np.allclose(normalize_mueller(2 * np.eye(4)), np.eye(4))
    with pytest.raises(ValueError):
        normalize_mueller(-np.eye(4))


def test_mueller_maps_physical():
    assert mueller_maps_physical(np.eye(4))
    assert mueller_maps_physical(np.diag([1.0, 0.5, 0.5, 0.5]))
    assert not mueller_maps_physical(np.diag([1.0, 1.2, 0.0, 0.0]))
    polarizer = 0.5 * np.outer([1.0, 1.0, 0.0, 0.0], [1.0, 1.0, 0.0, 0.0])
    assert mueller_maps_physical(polarizer)
    # None of these raises the DoP |s_out| / S0_out of a pure input above 1,
    # yet none is CP: the transpose map's coherency has the eigenvalue -1,
    # and the other two give negative intensity.
    assert not mueller_maps_physical(np.diag([1.0, 1.0, 1.0, -1.0]))
    assert not mueller_maps_physical(-np.eye(4))
    assert not mueller_maps_physical(-polarizer)
    nan_entry = np.eye(4)
    nan_entry[2, 3] = np.nan
    assert not mueller_maps_physical(nan_entry)
    assert not mueller_maps_physical(np.diag([1.0, np.inf, 0.0, 0.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not mueller_maps_physical(np.zeros((4, 4)))
    # The test is scale-free in M00.
    assert mueller_maps_physical(0.3 * np.diag([1.0, 0.5, 0.5, 0.5]))


def test_mueller_maps_physical_signature():
    # tol is keyword-only, so an old positional sample count cannot bind to it.
    with pytest.raises(TypeError):
        mueller_maps_physical(np.diag([1.0, 1.0, 1.0, -1.0]), 200)
    assert not mueller_maps_physical(np.diag([1.0, 1.0, 1.0, -1.0]), tol=1e-3)
    assert mueller_maps_physical(np.diag([1.0, 1.0, 1.0, -1.0]), tol=2.0)
    with pytest.raises(ValueError):
        mueller_maps_physical(np.eye(3))
    with pytest.raises(ValueError):
        mueller_maps_physical(np.ones(16))


def test_mueller_maps_physical_accepts_cptp_ensembles():
    for seed in range(500):
        rng = np.random.default_rng(seed)
        m, _ = mueller_from_kraus(random_cptp_ensemble(rng, k=int(rng.integers(1, 5))))
        assert mueller_maps_physical(m), seed


def test_mueller_maps_physical_matches_pauli_weights_on_diagonals():
    # For diag(1, m) the coherency eigenvalues are twice the four Pauli
    # weights (1 + PAULI_SIGNS @ m)/4, an independent closed form.
    rng = np.random.default_rng(23)
    diagonals = rng.uniform(-1.0, 1.0, size=(1000, 3))
    cp = ((1 + diagonals @ PAULI_SIGNS.T) / 4 >= -1e-10).all(axis=1)
    got = [mueller_maps_physical(np.diag(np.concatenate([[1.0], d]))) for d in diagonals]
    assert np.array_equal(got, cp)
    assert 0 < cp.sum() < len(cp)
