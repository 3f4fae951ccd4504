"""Entanglement/mixedness metrics and the closed-form purity laws."""

import numpy as np
import pytest

import qpol2
from qpol2 import (
    MetricsReport,
    UnphysicalStateError,
    apply_one_photon,
    apply_two_photon_independent,
    bell_state,
    concurrence,
    correlation_tensor,
    dephasing_strength,
    kraus_from_diagonal_mueller,
    metrics_report,
    purity,
    purity_closed_form,
    purity_sensitivity,
    tensor_purity,
    von_neumann_entropy,
)
from conftest import (
    concurrence_state,
    random_cp_diagonal,
    random_density,
    random_product_density,
    random_pure_density,
)


def werner(p):
    return p * bell_state() + (1 - p) * np.eye(4) / 4


# ------------------------------------------------------------------ purity

def test_purity_limits():
    assert np.isclose(purity(bell_state()), 1.0)
    assert np.isclose(purity(np.eye(4) / 4), 0.25)
    assert np.isclose(purity(np.eye(2) / 2), 0.5)


def test_tensor_purity_matches_state_purity():
    for seed in range(25):
        rng = np.random.default_rng(seed)
        rho = random_density(rng)
        assert np.isclose(tensor_purity(correlation_tensor(rho)), purity(rho),
                          atol=1e-13)


def test_werner_purity_closed_form():
    for p in np.linspace(0, 1, 11):
        assert np.isclose(purity(werner(p)), (1 + 3 * p**2) / 4, atol=1e-14)


# ------------------------------------------------------------- concurrence

def test_concurrence_of_canonical_states():
    assert np.isclose(concurrence(bell_state()), 1.0)
    assert np.isclose(concurrence(np.eye(4) / 4), 0.0)
    rng = np.random.default_rng(3)
    assert np.isclose(concurrence(random_product_density(rng)), 0.0, atol=1e-8)


def test_concurrence_of_partially_entangled_pure_states():
    for c in (0.1, 0.5, 0.9, 1.0):
        assert np.isclose(concurrence(concurrence_state(c)), c, atol=1e-12)


def test_werner_concurrence_closed_form():
    for p in np.linspace(0, 1, 21):
        expected = max(0.0, (3 * p - 1) / 2)
        assert np.isclose(concurrence(werner(p)), expected, atol=1e-12)


# ----------------------------------------------------------------- entropy

def test_entropy_limits():
    assert np.isclose(von_neumann_entropy(bell_state()), 0.0, atol=1e-12)
    assert np.isclose(von_neumann_entropy(np.eye(4) / 4), 2.0)
    assert np.isclose(von_neumann_entropy(np.eye(2) / 2), 1.0)


def test_werner_entropy_value():
    # Eigenvalues (1+3p)/4 and three copies of (1-p)/4 at p = 0.5.
    assert np.isclose(
        von_neumann_entropy(werner(0.5)), 1.5487949406953985, atol=1e-12
    )


# --------------------------------------------------------------- dephasing

def test_dephasing_tracks_depolarization_strength():
    # For a Bell input the coherence scales with m once (one arm) or twice
    # (both arms), giving D = 1 - m and D = 1 - m^2.
    bell = bell_state()
    for m in (0.0, 0.25, 0.5, 0.9, 1.0):
        ch = kraus_from_diagonal_mueller(m, m, m)
        opp, _ = apply_one_photon(ch, bell, arm="first")
        tpp, _ = apply_two_photon_independent(ch, bell)
        assert np.isclose(dephasing_strength(opp, bell), 1 - m, atol=1e-12)
        assert np.isclose(dephasing_strength(tpp, bell), 1 - m * m, atol=1e-12)


def test_dephasing_undefined_without_coherence():
    rho = np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex)
    with pytest.raises(ValueError):
        dephasing_strength(rho, rho)


# ---------------------------------------------------------- closed forms

def test_purity_closed_form_matches_full_simulation():
    bell = bell_state()
    for seed in range(15):
        rng = np.random.default_rng(seed)
        m11, m22, m33 = random_cp_diagonal(rng, lo=0.0)
        ch = kraus_from_diagonal_mueller(m11, m22, m33)
        opp, _ = apply_one_photon(ch, bell, arm="first")
        tpp, _ = apply_two_photon_independent(ch, bell)
        assert np.isclose(
            purity(opp), purity_closed_form(m11, m22, m33, "opp"), atol=1e-13
        )
        assert np.isclose(
            purity(tpp), purity_closed_form(m11, m22, m33, "tpp"), atol=1e-13
        )


def test_purity_closed_form_reference_values():
    assert purity_closed_form(0.5, 0.5, 0.5, "opp") == 0.4375
    assert purity_closed_form(0.5, 0.5, 0.5, "tpp") == 0.296875
    assert purity_closed_form(0.8, 0.75, 0.9, "tpp") == 0.5955265625
    assert purity_closed_form(1, 1, 1, "opp") == 1.0
    assert purity_closed_form(0, 0, 0, "tpp") == 0.25


def test_tpp_purity_never_exceeds_opp_purity():
    for m in np.linspace(0.0, 1.0, 101):
        assert (purity_closed_form(m, m, m, "tpp")
                <= purity_closed_form(m, m, m, "opp") + 1e-15)


def test_purity_sensitivity_matches_finite_difference():
    # Central difference of the isotropic closed form at m = 0.5, h = 1e-6.
    h = 1e-6
    for mode, expected in (("opp", 1.5 * 0.5), ("tpp", 3.0 * 0.5**3)):
        fd = (
            purity_closed_form(0.5 + h, 0.5 + h, 0.5 + h, mode)
            - purity_closed_form(0.5 - h, 0.5 - h, 0.5 - h, mode)
        ) / (2 * h)
        assert np.isclose(purity_sensitivity(0.5, 1.0, mode), fd, rtol=1e-8)
        assert np.isclose(purity_sensitivity(0.5, 1.0, mode), expected, atol=1e-15)


def test_purity_sensitivity_scales_with_dm_deta():
    assert purity_sensitivity(0.4, -2.0, "opp") == -2.0 * 1.5 * 0.4
    assert purity_sensitivity(0.4, -2.0, "tpp") == -2.0 * 3.0 * 0.4**3


def test_closed_form_purities_need_finite_arguments():
    for bad in (np.nan, np.inf, -np.inf):
        for mode in ("opp", "tpp"):
            for args in ((bad, 0.5, 0.5), (0.5, bad, 0.5), (0.5, 0.5, bad)):
                with pytest.raises(ValueError, match="m11, m22, m33 must be finite"):
                    purity_closed_form(*args, mode)
            for args in ((bad, 1.0), (0.5, bad)):
                with pytest.raises(ValueError, match="m, dm_deta must be finite"):
                    purity_sensitivity(*args, mode)
    # |m| <= 1 is not required: a stencil may step past 1, and a CP diagonal
    # such as diag(1, 1, -1, -1) has negative entries.
    assert np.isclose(purity_closed_form(1.02, 1.0, 1.0, "opp"), (1 + 1.02**2 + 2) / 4)
    assert purity_closed_form(1.0, -1.0, -1.0, "tpp") == 1.0
    assert purity_sensitivity(-0.5, 1.0, "opp") == -0.75


def test_mode_validation():
    with pytest.raises(ValueError):
        purity_closed_form(0.5, 0.5, 0.5, "both")
    with pytest.raises(ValueError):
        purity_sensitivity(0.5, 1.0, "neither")


# ----------------------------------------------------------------- report

def test_metrics_report_bundle():
    rep = metrics_report(bell_state(), bell_state())
    assert isinstance(rep, MetricsReport)
    assert np.isclose(rep.concurrence, 1.0)
    assert np.isclose(rep.purity, 1.0)
    assert np.isclose(rep.entropy, 0.0, atol=1e-12)
    assert np.isclose(rep.dephasing, 0.0)
    d = rep.as_dict()
    assert set(d) == {"concurrence", "purity", "entropy", "dephasing"}


def test_metrics_report_without_reference_input():
    rep = metrics_report(bell_state())
    assert rep.dephasing is None
    # A reference without HV/VH coherence also leaves dephasing undefined.
    rng = np.random.default_rng(1)
    rep = metrics_report(random_pure_density(rng), np.eye(4) / 4)
    assert rep.dephasing is None


def test_metrics_report_rejects_unphysical_reference():
    # An invalid rho_in is an error, even one without HV/VH coherence, which
    # alone would leave dephasing undefined.
    for rho_in in (np.zeros((4, 4)), np.eye(4) / 2, np.eye(2) / 2):
        with pytest.raises(UnphysicalStateError):
            metrics_report(bell_state(), rho_in)


def test_entropy_rejects_unphysical_input():
    with pytest.raises(UnphysicalStateError):
        von_neumann_entropy(np.diag([1.5, -0.5]))
