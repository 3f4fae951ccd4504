"""Polarized Monte Carlo photon transport through a scattering slab."""

import math
import warnings

import numpy as np
import pytest

import qpol2
import scalar_transport
from qpol2 import (
    KrausEnsemble,
    Medium,
    NoTransmissionError,
    effective_thickness,
    mueller_from_kraus,
    mueller_maps_physical,
    mueller_vs_eta,
    sample_hg,
    simulate,
    trace_paths,
)
from qpol2 import scatter

WIDE = math.radians(45.0)


def test_medium_validation():
    with pytest.raises(ValueError):
        Medium(mu_s=0.0, g=0.5, d=1.0)
    with pytest.raises(ValueError):
        Medium(mu_s=1.0, g=1.0, d=1.0)
    with pytest.raises(ValueError):
        Medium(mu_s=1.0, g=-0.1, d=1.0)
    with pytest.raises(ValueError):
        Medium(mu_s=1.0, g=0.5, d=-1.0)
    with pytest.raises(ValueError):
        Medium(mu_s=1.0, g=0.5, d=1.0, acceptance_half_angle=0.0)
    with pytest.raises(ValueError):
        Medium(mu_s=1.0, g=0.5, d=1.0, acceptance_half_angle=2.0)
    # A non-finite mu_s would run every photon to the event cap.
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            Medium(mu_s=bad, g=0.5, d=1.0)
        with pytest.raises(ValueError):
            Medium(mu_s=1.0, g=0.5, d=bad)


def test_effective_thickness_and_transport_length():
    med = Medium(mu_s=10.0, g=0.9, d=0.26)
    assert np.isclose(med.transport_mean_free_path, 1.0)
    assert np.isclose(effective_thickness(med), 0.26)
    med2 = Medium(mu_s=2.0, g=0.0, d=3.0)
    assert np.isclose(effective_thickness(med2), 6.0)
    assert np.isclose(
        effective_thickness(med2), med2.d / med2.transport_mean_free_path
    )


def test_sample_hg_endpoints_and_range():
    for g in (0.1, 0.5, 0.9):
        assert np.isclose(sample_hg(g, 0.0), -1.0, atol=1e-12)
        assert np.isclose(sample_hg(g, 1.0), 1.0, atol=1e-12)
    xs = sample_hg(0.7, np.linspace(0.0, 1.0, 1001))
    assert xs.min() >= -1.0 and xs.max() <= 1.0
    assert np.all(np.diff(xs) >= 0)  # cos(theta) increases with the quantile


def test_sample_hg_isotropic_limit():
    xi = np.linspace(0.0, 1.0, 101)
    assert np.allclose(sample_hg(0.0, xi), 1.0 - 2.0 * xi, atol=1e-12)


def test_sample_hg_mean_cosine_is_g():
    rng = np.random.default_rng(1)
    xi = rng.uniform(size=200_000)
    for g in (0.0, 0.3, 0.7, 0.9):
        mean = float(np.mean(sample_hg(g, xi)))
        assert abs(mean - g) < 0.01


def test_simulate_is_deterministic():
    med = Medium(mu_s=10.0, g=0.9, d=0.05, acceptance_half_angle=WIDE)
    a = simulate(med, 2000, seed=7)
    b = simulate(med, 2000, seed=7)
    assert np.array_equal(a.weights, b.weights)
    assert np.array_equal(a.jones, b.jones)
    c = simulate(med, 2000, seed=8)
    assert not np.array_equal(a.jones, c.jones)


def test_ballistic_limit_is_identity_channel():
    # A zero-thickness slab transmits every photon unscattered.
    med = Medium(mu_s=10.0, g=0.9, d=0.0)
    records = trace_paths(med, 500, seed=1)
    assert all(r.transmitted for r in records)
    assert all(r.n_events == 0 for r in records)
    ensemble = simulate(med, 500, seed=1)
    m, _ = mueller_from_kraus(ensemble)
    assert np.allclose(m, np.eye(4), atol=1e-12)


def test_nearly_transparent_slab():
    med = Medium(mu_s=0.01, g=0.5, d=0.1, acceptance_half_angle=WIDE)
    ensemble = simulate(med, 2000, seed=3)
    m, _ = mueller_from_kraus(ensemble)
    assert np.allclose(m, np.eye(4), atol=0.01)


def test_path_records_structure():
    med = Medium(mu_s=10.0, g=0.9, d=0.2, acceptance_half_angle=WIDE)
    records = trace_paths(med, 1500, seed=5)
    assert len(records) == 1500
    transmitted = [r for r in records if r.transmitted]
    assert transmitted
    cos_acc = math.cos(WIDE)
    for rec in records:
        assert rec.jones.shape == (2, 2)
        # Per-event renormalization keeps every path passive.
        assert np.linalg.svd(rec.jones, compute_uv=False).max() <= 1 + 1e-9
        if rec.transmitted:
            assert np.isclose(np.linalg.norm(rec.exit_direction), 1.0, atol=1e-9)
            assert rec.exit_direction[2] >= cos_acc - 1e-12
    scattered = [r for r in transmitted if r.n_events > 0]
    assert scattered  # at eta = 0.2 and a wide cone, scattered light gets through


def test_simulate_produces_physical_ensemble():
    med = Medium(mu_s=10.0, g=0.9, d=0.2, acceptance_half_angle=WIDE)
    ensemble = simulate(med, 3000, seed=9)
    assert isinstance(ensemble, KrausEnsemble)
    assert np.isclose(ensemble.weights.sum(), 1.0)
    assert np.allclose(ensemble.weights, ensemble.weights[0])  # equal weights
    gram = ensemble.kraus_gram()
    assert np.linalg.eigvalsh(gram).max() <= 1 + 1e-9
    m, trans = mueller_from_kraus(ensemble)
    assert m[0, 0] == 1.0
    assert 0 < trans <= 1 + 1e-9
    assert mueller_maps_physical(m)


def test_no_transmission_raises():
    # A thick diffusive slab with a needle-thin acceptance cone.
    med = Medium(mu_s=50.0, g=0.0, d=1.0, acceptance_half_angle=0.01)
    with pytest.raises(NoTransmissionError):
        simulate(med, 100, seed=0)


def test_simulate_validates_photon_count():
    med = Medium(mu_s=1.0, g=0.0, d=0.1)
    with pytest.raises(ValueError):
        simulate(med, 0, seed=0)
    with pytest.raises(ValueError):
        trace_paths(med, -1, seed=0)
    assert trace_paths(med, 0, seed=0) == []


def test_depolarization_grows_with_thickness():
    med = Medium(mu_s=10.0, g=0.9, d=1.0, acceptance_half_angle=WIDE)
    results = mueller_vs_eta(med, [0.05, 0.2, 0.5], 20_000, seed=3)
    etas = [e for e, _, _ in results]
    ms = [m for _, _, m in results]
    assert etas == [0.05, 0.2, 0.5]
    assert all(0.0 <= m <= 1.0 for m in ms)
    assert ms[0] > ms[1] > ms[2]
    # The transmitted channel stays nearly diagonal in this regime.
    for _, mueller, _ in results:
        off = np.abs(mueller - np.diag(np.diag(mueller))).max()
        assert off < 0.05


def test_mueller_vs_eta_zero_thickness_anchor():
    med = Medium(mu_s=10.0, g=0.5, d=1.0, acceptance_half_angle=WIDE)
    results = mueller_vs_eta(med, [0.0, 0.2], 1000, seed=2)
    assert np.isclose(results[0][2], 1.0, atol=1e-9)
    assert np.allclose(results[0][1], np.eye(4), atol=1e-12)


def test_mueller_vs_eta_validates_grid():
    med = Medium(mu_s=10.0, g=0.5, d=1.0)
    with pytest.raises(ValueError):
        mueller_vs_eta(med, [0.2, 0.1], 100, seed=0)
    with pytest.raises(ValueError):
        mueller_vs_eta(med, [0.1, 0.1], 100, seed=0)


# (medium, photons, seed, _MAX_EVENTS override or None, _CHUNK override or None)
ORACLE_CASES = {
    "thin": (Medium(mu_s=10.0, g=0.9, d=0.025, acceptance_half_angle=WIDE), 3000, 7,
             None, None),
    "thick": (Medium(mu_s=10.0, g=0.9, d=0.26, acceptance_half_angle=WIDE), 3000, 7,
              None, 700),
    "isotropic": (Medium(mu_s=2.0, g=0.0, d=1.0, acceptance_half_angle=WIDE), 1000, 3,
                  None, None),
    "zero_thickness": (Medium(mu_s=10.0, g=0.9, d=0.0), 300, 1, None, None),
    "diffusive": (Medium(mu_s=50.0, g=0.0, d=1.0, acceptance_half_angle=0.01), 100, 0,
                  None, None),
    "truncated": (Medium(mu_s=10.0, g=0.9, d=0.26, acceptance_half_angle=WIDE), 1000, 5,
                  3, None),
}


@pytest.mark.parametrize("case", ORACLE_CASES)
def test_kernel_matches_scalar_reference(monkeypatch, case):
    medium, n, seed, max_events, chunk = ORACLE_CASES[case]
    if max_events is not None:
        monkeypatch.setattr(scatter, "_MAX_EVENTS", max_events)
        monkeypatch.setattr(scalar_transport, "_MAX_EVENTS", max_events)
    if chunk is not None:
        monkeypatch.setattr(scatter, "_CHUNK", chunk)
    out = scatter._Transport(*map(np.concatenate, zip(*scatter._transport(medium, n, seed))))
    ok, jones, direction, events = zip(
        *(scalar_transport._trace_photon(medium, seed, i) for i in range(n)))
    assert np.array_equal(out.transmitted, ok)
    assert np.array_equal(out.events, events)
    assert np.array_equal(out.direction, direction)
    assert np.abs(out.jones.reshape(n, 4) - np.array(jones)).max() <= 1e-12

    # The termination reasons partition the launched photons.
    reason = out.reason
    assert reason.shape == (n,) and set(np.unique(reason)) <= set(range(4))
    uz = out.direction[:, 2]
    cos_acc = math.cos(medium.acceptance_half_angle)
    accepted = reason == scatter._ACCEPTED
    outside = reason == scatter._OUTSIDE_CONE
    assert np.array_equal(accepted, out.transmitted)
    assert np.all(uz[accepted] >= cos_acc)
    assert np.all((uz[outside] > 0) & (uz[outside] < cos_acc))
    assert np.all(uz[reason == scatter._BACKSCATTERED] < 0)
    truncated = reason == scatter._TRUNCATED
    assert np.array_equal(truncated, out.events == scatter._MAX_EVENTS)
    assert truncated.any() == (max_events is not None)


@pytest.mark.parametrize("d", [0.025, 0.26])
def test_chunk_size_does_not_change_outputs(monkeypatch, d):
    # Photon i's stream is keyed (seed, i), so _CHUNK only bounds the working set.
    med = Medium(mu_s=10.0, g=0.9, d=d, acceptance_half_angle=WIDE)
    n = 2 * scatter._CHUNK + 1000

    def outputs():
        ensemble = simulate(med, n, seed=7)
        records = trace_paths(med, n, seed=7)
        return (ensemble.weights.tobytes(), ensemble.jones.tobytes(),
                np.array([r.jones for r in records]).tobytes(),
                np.array([r.exit_direction for r in records]).tobytes(),
                [r.n_events for r in records], [r.transmitted for r in records])

    default = outputs()
    for chunk in (4096, 1 << 16):
        monkeypatch.setattr(scatter, "_CHUNK", chunk)
        assert outputs() == default


@pytest.mark.parametrize("seed", [0, 1, 7, 2**32 + 5, 2**63 - 1])
def test_philox_port_matches_numpy(seed):
    photons = np.array([0, 1, 2, 999, 2**40])
    draws = scatter._philox_uniform(seed, photons, 0, 3)
    for col, i in enumerate(photons):
        rng = np.random.Generator(np.random.Philox(key=[seed, int(i)]))
        assert np.array_equal(draws[:, col], rng.random(12))
    assert np.array_equal(scatter._philox_uniform(seed, photons, 2, 1), draws[8:])


@pytest.mark.parametrize("seed", [-1, 1.5, 2**64, "7", None])
def test_seed_outside_domain_raises(seed):
    med = Medium(mu_s=10.0, g=0.9, d=0.05, acceptance_half_angle=WIDE)
    with pytest.raises(ValueError):
        simulate(med, 10, seed)
    with pytest.raises(ValueError):
        trace_paths(med, 10, seed)


def test_seed_domain_edges_are_accepted():
    med = Medium(mu_s=10.0, g=0.9, d=0.05, acceptance_half_angle=WIDE)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        top = trace_paths(med, 20, 2**64 - 1)
        top_np = trace_paths(med, 20, np.uint64(2**64 - 1))
        simulate(med, 20, 0)
    assert all(np.array_equal(a.jones, b.jones) for a, b in zip(top, top_np))
