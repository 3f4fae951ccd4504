"""Coincidence-count simulation and density-matrix reconstruction."""

import numpy as np
import pytest

import qpol2
from qpol2 import fileio
from qpol2 import (
    ANALYZERS,
    SETTING_LABELS,
    CountRecord,
    TomographyError,
    UnphysicalStateError,
    analyzer_stokes,
    bell_state,
    fidelity,
    reconstruct,
    simulate_counts,
)
from conftest import concurrence_state, random_density, random_pure_density


def test_setting_labels_cover_product_basis():
    assert len(SETTING_LABELS) == 36
    assert len(set(SETTING_LABELS)) == 36
    assert SETTING_LABELS[0] == ("H", "H")
    assert all(a in "HVDARL" and b in "HVDARL" for a, b in SETTING_LABELS)


def test_analyzer_states_are_normalized():
    for label, ket in ANALYZERS.items():
        assert np.isclose(np.linalg.norm(ket), 1.0)


def test_analyzer_stokes_vectors():
    assert np.allclose(analyzer_stokes("H"), [1, 1, 0, 0], atol=1e-15)
    assert np.allclose(analyzer_stokes("V"), [1, -1, 0, 0], atol=1e-15)
    assert np.allclose(analyzer_stokes("D"), [1, 0, 1, 0], atol=1e-15)
    assert np.allclose(analyzer_stokes("A"), [1, 0, -1, 0], atol=1e-15)
    assert np.allclose(analyzer_stokes("R"), [1, 0, 0, 1], atol=1e-15)
    assert np.allclose(analyzer_stokes("L"), [1, 0, 0, -1], atol=1e-15)


def test_bell_state_coincidence_rates():
    records = simulate_counts(bell_state(), 10**6)
    assert len(records) == 36
    rates = {(r.setting_a, r.setting_b): r.expected for r in records}
    # Perfect anticorrelation in H/V, correlation in D/A and R/L.
    assert np.isclose(rates[("H", "V")], 0.5)
    assert np.isclose(rates[("H", "H")], 0.0)
    assert np.isclose(rates[("D", "D")], 0.5)
    assert np.isclose(rates[("D", "A")], 0.0)
    assert np.isclose(rates[("R", "R")], 0.5)
    assert np.isclose(rates[("R", "L")], 0.0)
    # Cross-basis settings are unbiased.
    assert np.isclose(rates[("H", "D")], 0.25)


def test_noiseless_counts_are_rounded_expectations():
    records = simulate_counts(bell_state(), 1000)
    for rec in records:
        assert rec.counts == int(np.rint(1000 * rec.expected))
        assert rec.pairs == 1000


def test_simulate_counts_needs_a_pair_per_setting():
    for pairs, message in ((0, "at least 1"), (-5, "at least 1"), (0.5, "at least 1"),
                           (np.inf, "finite"), (-np.inf, "finite"), (np.nan, "finite")):
        for noisy in (False, True):
            with pytest.raises(ValueError, match=f"pairs_per_setting must be {message}"):
                simulate_counts(bell_state(), pairs, noisy=noisy)
    assert all(rec.pairs == 1 for rec in simulate_counts(bell_state(), 1))


def test_simulate_counts_noisy_pairs_within_the_poisson_limit():
    for pairs in (1e19, 1e30, 2**63):
        with pytest.raises(ValueError, match="pairs_per_setting must be at most"):
            simulate_counts(bell_state(), pairs, noisy=True)
        assert simulate_counts(bell_state(), pairs)[0].pairs == int(pairs)
    # Just below the limit, a rate of 1 still draws.
    h = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
    assert simulate_counts(h, 9.2e18, noisy=True)[0].counts > 9e18


def test_noisy_counts_determinism():
    rho = random_density(np.random.default_rng(0))
    a = simulate_counts(rho, 5000, seed=11, noisy=True)
    b = simulate_counts(rho, 5000, seed=11, noisy=True)
    c = simulate_counts(rho, 5000, seed=12, noisy=True)
    assert [r.counts for r in a] == [r.counts for r in b]
    assert [r.counts for r in a] != [r.counts for r in c]


def test_counts_match_per_setting_kron_reference():
    # Rates <ab|rho|ab> from one np.kron ket per setting, and one Poisson
    # draw per setting in label order from the same seed.
    for seed in range(12):
        rng = np.random.default_rng(seed)
        rho = random_density(rng) if seed % 2 else random_pure_density(rng)
        for pairs, noisy in ((10**12, False), (10**4, False), (10**4, True), (100, True)):
            records = simulate_counts(rho, pairs, seed=seed, noisy=noisy)
            assert len(records) == len(SETTING_LABELS)
            draws = np.random.default_rng(seed)
            for rec, (a, b) in zip(records, SETTING_LABELS):
                ket = np.kron(ANALYZERS[a], ANALYZERS[b])
                rate = min(max(float(np.real(ket.conj() @ rho @ ket)), 0.0), 1.0)
                counts = draws.poisson(pairs * rate) if noisy else np.rint(pairs * rate)
                assert (rec.setting_a, rec.setting_b, rec.pairs) == (a, b, pairs)
                assert rec.counts == int(counts)
                assert np.isclose(rec.expected, rate, rtol=0, atol=1e-15)


def test_noiseless_roundtrip_on_random_states():
    # With enough pairs the integer rounding is negligible and linear
    # inversion restores the state to near machine precision.
    for seed in range(20):
        rng = np.random.default_rng(seed)
        rho = random_density(rng) if seed % 2 else random_pure_density(rng)
        rec = reconstruct(simulate_counts(rho, 10**12))
        assert np.linalg.norm(rec - rho) < 1e-10


def test_reconstruction_is_always_physical():
    # Even at low counts the projection step returns a valid density matrix.
    for seed in range(10):
        rng = np.random.default_rng(seed)
        rho = random_density(rng)
        rec = reconstruct(simulate_counts(rho, 50, seed=seed, noisy=True))
        lam = np.linalg.eigvalsh(rec)
        assert lam.min() > -1e-12
        assert np.isclose(np.trace(rec).real, 1.0, atol=1e-12)
        assert np.abs(rec - rec.conj().T).max() < 1e-12


def test_noisy_fidelity_at_typical_count_rates():
    truth = concurrence_state(0.9)
    fids = []
    for seed in range(20):
        rec = reconstruct(simulate_counts(truth, 10**4, seed=seed, noisy=True))
        fids.append(fidelity(rec, truth))
    assert np.median(fids) > 0.99


def test_reconstruct_input_validation():
    with pytest.raises(TomographyError):
        reconstruct([])
    zeros = [
        CountRecord(a, b, 0.0, 0, 100) for a, b in SETTING_LABELS
    ]
    with pytest.raises(TomographyError):
        reconstruct(zeros)
    repeated = [CountRecord("H", "H", 0.25, 25, 100)] * 36
    with pytest.raises(TomographyError):
        reconstruct(repeated)  # settings do not span the operator space
    with pytest.raises(TomographyError):
        reconstruct([CountRecord("H", "V", 0.5, 50, 0)])  # pairs must be > 0


def test_reconstruct_rejects_unknown_setting_from_file(tmp_path):
    path = tmp_path / "counts.csv"
    fileio.write_counts_csv(simulate_counts(bell_state(), 1000), path)
    text = path.read_text().splitlines()
    text[5] = "X" + text[5][1:]  # a label outside {H, V, D, A, R, L}
    path.write_text("\n".join(text) + "\n")
    records = fileio.read_counts_csv(path)
    with pytest.raises(TomographyError, match="unknown analyzer setting"):
        reconstruct(records)


def test_fidelity_properties():
    bell = bell_state()
    assert np.isclose(fidelity(bell, bell), 1.0)
    assert np.isclose(fidelity(bell, np.eye(4) / 4), 0.25)
    for seed in range(10):
        rng = np.random.default_rng(seed)
        a = random_density(rng)
        b = random_density(rng)
        assert np.isclose(fidelity(a, b), fidelity(b, a), atol=1e-10)
        assert 0.0 <= fidelity(a, b) <= 1.0 + 1e-12
    for a, b in ((np.eye(2) / 2, bell), (bell, np.eye(2) / 2)):
        with pytest.raises(UnphysicalStateError, match="density matrix"):
            fidelity(a, b)


def test_fidelity_of_pure_states_is_overlap():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        pa = rng.normal(size=4) + 1j * rng.normal(size=4)
        pa /= np.linalg.norm(pa)
        pb = rng.normal(size=4) + 1j * rng.normal(size=4)
        pb /= np.linalg.norm(pb)
        rho_a = np.outer(pa, pa.conj())
        rho_b = np.outer(pb, pb.conj())
        assert np.isclose(
            fidelity(rho_a, rho_b), abs(pa.conj() @ pb) ** 2, atol=1e-10
        )
