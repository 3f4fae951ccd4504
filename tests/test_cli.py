"""End-user command-line interface: subcommands, formats, exit codes."""

import contextlib
import copy
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qpol2
from qpol2 import fileio
from qpol2.cli import main
from qpol2 import (
    bell_state,
    correlation_tensor,
    kraus_from_diagonal_mueller,
    propagate_tensor,
)
from conftest import (K_BELL, MALFORMED_KRAUS_ITEMS, STRING_DENSITY, concurrence_state,
                      faint_polarizer_case)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def sweep_table(out):
    lines = out.strip().splitlines()
    header = lines[0].split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    return header, rows


# ------------------------------------------------------------------- sweep

def test_sweep_default_table(capsys):
    code, out, _ = run(capsys, "sweep")
    assert code == 0
    header, rows = sweep_table(out)
    assert header == [
        "m",
        "concurrence_opp", "concurrence_tpp",
        "purity_opp", "purity_tpp",
        "entropy_opp", "entropy_tpp",
        "dephasing_opp", "dephasing_tpp",
    ]
    assert len(rows) == 11
    col = {name: i for i, name in enumerate(header)}
    last = rows[-1]  # m = 1: identity channel
    assert np.isclose(last[col["m"]], 1.0)
    assert np.isclose(last[col["concurrence_opp"]], 1.0, atol=1e-9)
    assert np.isclose(last[col["concurrence_tpp"]], 1.0, atol=1e-9)
    assert np.isclose(last[col["purity_opp"]], 1.0, atol=1e-12)
    assert np.isclose(last[col["purity_tpp"]], 1.0, atol=1e-12)
    mid = rows[5]  # m = 0.5
    assert np.isclose(mid[col["purity_opp"]], 0.4375, atol=1e-12)
    assert np.isclose(mid[col["purity_tpp"]], 0.296875, atol=1e-12)
    assert np.isclose(mid[col["dephasing_opp"]], 0.5, atol=1e-12)
    assert np.isclose(mid[col["dephasing_tpp"]], 0.75, atol=1e-12)
    # Entanglement thresholds: the OPP concurrence turns on above m = 1/3,
    # the TPP concurrence above m = 1/sqrt(3).
    for row in rows:
        m = row[col["m"]]
        c_opp = row[col["concurrence_opp"]]
        c_tpp = row[col["concurrence_tpp"]]
        assert (c_opp > 0) == (m > 1 / 3)
        assert (c_tpp > 0) == (m > 3**-0.5)


def test_sweep_single_mode_and_file_output(capsys, tmp_path):
    out_path = tmp_path / "sweep.csv"
    code, out, _ = run(
        capsys, "sweep", "--modes", "opp", "--steps", "3", "--out", str(out_path)
    )
    assert code == 0
    assert out == ""
    lines = out_path.read_text().strip().splitlines()
    assert lines[0].split(",") == [
        "m", "concurrence_opp", "purity_opp", "entropy_opp", "dephasing_opp"
    ]
    assert len(lines) == 4


def test_sweep_file_is_stdout_with_crlf(capsys, tmp_path):
    # The --out file holds the stdout table byte for byte, with CRLF line ends.
    for modes in ("both", "opp", "tpp"):
        argv = ["sweep", "--modes", modes, "--m-min", "0.1", "--steps", "4"]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        path = tmp_path / f"{modes}.csv"
        assert run(capsys, *argv, "--out", str(path)) == (0, "", "")
        assert path.read_bytes() == out.replace("\n", "\r\n").encode()


def test_sweep_range_validation(capsys):
    assert run(capsys, "sweep", "--m-min", "0.9", "--m-max", "0.5")[0] == 2
    assert run(capsys, "sweep", "--m-max", "1.5")[0] == 2
    assert run(capsys, "sweep", "--steps", "1")[0] == 2


# ---------------------------------------------------------------------- mc

def write_mc_config(path, **kwargs):
    fileio.write_json(kwargs, path)
    return str(path)


def test_mc_transparent_medium(capsys, tmp_path):
    cfg = write_mc_config(
        tmp_path / "cfg.json",
        mu_s=1e-5, g=0.5, d=0.1, acceptance_deg=45.0, n_photons=400, seed=3,
    )
    prefix = str(tmp_path / "run")
    code, out, _ = run(capsys, "mc", "--config", cfg, "--out", prefix)
    assert code == 0
    fields = dict(kv.split("=") for kv in out.split())
    assert np.isclose(float(fields["m"]), 1.0, atol=1e-6)
    assert np.isclose(float(fields["eta"]), 1e-5 * 0.1 * 0.5)
    ensemble = fileio.kraus_from_json(f"{prefix}.kraus.json")
    assert ensemble.weights.size == 400  # every photon transmitted
    mueller = fileio.read_matrix_csv(f"{prefix}.mueller.csv")
    assert np.allclose(mueller, np.eye(4), atol=1e-6)


def test_mc_eta_grid_outputs(capsys, tmp_path):
    cfg = write_mc_config(
        tmp_path / "cfg.json",
        mu_s=10.0, g=0.9, eta_grid=[0.05, 0.3], acceptance_deg=45.0,
        n_photons=8000, seed=7,
    )
    prefix = str(tmp_path / "grid")
    code, out, _ = run(capsys, "mc", "--config", cfg, "--out", prefix)
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    # eta as given in the grid, not recomputed from the slab thickness
    # (0.05 / (mu_s (1 - g)) times mu_s (1 - g) is 0.05000000000000001).
    assert [line.split()[0] for line in lines] == [f"eta={e:.17g}" for e in (0.05, 0.3)]
    ms = [float(line.split("m=")[1]) for line in lines]
    assert ms[0] > ms[1]  # thicker slab depolarizes more
    for i in range(2):
        assert (tmp_path / f"grid.{i}.kraus.json").exists()
        assert (tmp_path / f"grid.{i}.mueller.csv").exists()


def test_mc_determinism(capsys, tmp_path):
    cfg = write_mc_config(
        tmp_path / "cfg.json",
        mu_s=10.0, g=0.9, d=0.02, acceptance_deg=45.0, n_photons=1500, seed=11,
    )
    code_a, _, _ = run(capsys, "mc", "--config", cfg, "--out", str(tmp_path / "a"))
    code_b, _, _ = run(capsys, "mc", "--config", cfg, "--out", str(tmp_path / "b"))
    assert code_a == code_b == 0
    assert (tmp_path / "a.kraus.json").read_bytes() == (
        tmp_path / "b.kraus.json"
    ).read_bytes()
    assert (tmp_path / "a.mueller.csv").read_bytes() == (
        tmp_path / "b.mueller.csv"
    ).read_bytes()


def test_mc_max_paths_subsampling(capsys, tmp_path):
    cfg = write_mc_config(
        tmp_path / "cfg.json",
        mu_s=1e-5, g=0.5, d=0.1, acceptance_deg=45.0, n_photons=300, seed=3,
    )
    prefix = str(tmp_path / "sub")
    code, _, _ = run(
        capsys, "mc", "--config", cfg, "--out", prefix, "--max-paths", "50"
    )
    assert code == 0
    ensemble = fileio.kraus_from_json(f"{prefix}.kraus.json")
    assert ensemble.weights.size == 50
    assert np.allclose(ensemble.weights, 1.0 / 50)
    for bad in ("0", "-3"):
        code, _, err = run(capsys, "mc", "--config", cfg, "--out", prefix, "--max-paths", bad)
        assert code == 2 and "--max-paths" in err


def test_mc_no_transmission_exit_code(capsys, tmp_path):
    cfg = write_mc_config(
        tmp_path / "cfg.json",
        mu_s=50.0, g=0.0, d=1.0, acceptance_deg=0.5, n_photons=40, seed=0,
    )
    code, _, err = run(capsys, "mc", "--config", cfg, "--out", str(tmp_path / "x"))
    assert code == 1
    assert "transmission" in err


def test_mc_config_errors(capsys, tmp_path):
    both = write_mc_config(
        tmp_path / "both.json",
        mu_s=1.0, g=0.5, d=0.1, eta_grid=[0.1], n_photons=10, seed=0,
    )
    assert run(capsys, "mc", "--config", both, "--out", str(tmp_path / "x"))[0] == 2
    badg = write_mc_config(
        tmp_path / "badg.json", mu_s=1.0, g=1.0, d=0.1, n_photons=10, seed=0
    )
    assert run(capsys, "mc", "--config", badg, "--out", str(tmp_path / "y"))[0] == 2
    missing = str(tmp_path / "absent.json")
    assert run(capsys, "mc", "--config", missing, "--out", str(tmp_path / "z"))[0] == 2
    words = write_mc_config(
        tmp_path / "words.json", mu_s=1.0, g=0.5, d=0.1, n_photons="many", seed=0
    )
    assert run(capsys, "mc", "--config", words, "--out", str(tmp_path / "w"))[0] == 2
    empty = write_mc_config(
        tmp_path / "empty.json", mu_s=1.0, g=0.5, eta_grid=[], n_photons=10, seed=0
    )
    assert run(capsys, "mc", "--config", empty, "--out", str(tmp_path / "e"))[0] == 2
    for i, seed in enumerate([-1, 1.5, 2**64]):
        bad_seed = write_mc_config(
            tmp_path / f"seed{i}.json", mu_s=1.0, g=0.5, d=0.1, n_photons=10, seed=seed
        )
        assert run(capsys, "mc", "--config", bad_seed, "--out", str(tmp_path / "s"))[0] == 2
    for name, values in [("nan_mu_s", dict(mu_s=float("nan"), d=0.1)),
                         ("nan_d", dict(mu_s=1.0, d=float("nan"))),
                         ("nan_eta", dict(mu_s=1.0, eta_grid=[0.1, float("nan")]))]:
        cfg = write_mc_config(tmp_path / f"{name}.json", g=0.5, n_photons=10, seed=0,
                              **values)
        assert run(capsys, "mc", "--config", cfg, "--out", str(tmp_path / name))[0] == 2
    # Numbers must be JSON numbers, n_photons a positive integer, seed no boolean.
    valid = dict(mu_s=1.0, g=0.5, d=0.1, n_photons=10, seed=0)
    for i, change in enumerate([dict(n_photons=0), dict(n_photons=-5), dict(n_photons=2.7),
                                dict(n_photons=True), dict(mu_s="10"), dict(d=True),
                                dict(seed=True)]):
        cfg = write_mc_config(tmp_path / f"typed{i}.json", **dict(valid, **change))
        code, _, err = run(capsys, "mc", "--config", cfg, "--out", str(tmp_path / "t"))
        assert code == 2, change
        assert err.startswith("error: ") and err.count("\n") == 1
    # g = 1 or mu_s = 0 would make eta_grid's thickness eta / (mu_s (1 - g)) a
    # division by zero; the medium's own checks name the field.
    for name, values in [("g", dict(mu_s=1.0, g=1.0)), ("mu_s", dict(mu_s=0.0, g=0.5))]:
        cfg = write_mc_config(tmp_path / f"flat_{name}.json", eta_grid=[0.1],
                              n_photons=10, seed=0, **values)
        code, _, err = run(capsys, "mc", "--config", cfg, "--out", str(tmp_path / "f"))
        assert code == 2 and "Traceback" not in err
        assert err.startswith("error: ") and f"{name} must" in err


# --------------------------------------------------------------- propagate

def test_propagate_identity_channel(capsys, tmp_path):
    state = tmp_path / "bell.json"
    fileio.density_to_json(bell_state(), state)
    channel = tmp_path / "id.json"
    fileio.kraus_to_json(qpol2.KrausEnsemble.identity(), channel)
    prefix = str(tmp_path / "out")
    code, out, _ = run(
        capsys, "propagate", "--state", str(state), "--channel", str(channel),
        "--out", prefix,
    )
    assert code == 0
    metrics = fileio.read_json(f"{prefix}.metrics.json")
    assert np.isclose(metrics["concurrence"], 1.0, atol=1e-9)
    assert np.isclose(metrics["purity"], 1.0, atol=1e-12)
    assert np.isclose(metrics["entropy"], 0.0, atol=1e-9)
    assert np.isclose(metrics["dephasing"], 0.0, atol=1e-12)
    rho_out = fileio.density_from_json(f"{prefix}.state.json")
    assert np.allclose(rho_out, bell_state(), atol=1e-12)


def test_propagate_depolarizer_purity_and_tensor(capsys, tmp_path):
    state = tmp_path / "bell.json"
    fileio.density_to_json(bell_state(), state)
    channel = tmp_path / "depol.json"
    fileio.kraus_to_json(kraus_from_diagonal_mueller(0.5, 0.5, 0.5), channel)
    prefix = str(tmp_path / "out")
    code, _, _ = run(
        capsys, "propagate", "--state", str(state), "--channel", str(channel),
        "--mode", "tpp-independent", "--out", prefix,
    )
    assert code == 0
    metrics = fileio.read_json(f"{prefix}.metrics.json")
    assert np.isclose(metrics["purity"], 0.296875, atol=1e-12)
    tensor = fileio.read_matrix_csv(f"{prefix}.tensor.csv")
    m1 = np.diag([1.0, 0.5, 0.5, 0.5])  # congruence covers both arms
    assert np.allclose(tensor, propagate_tensor(m1, K_BELL), atol=1e-12)


def test_propagate_opp_mode(capsys, tmp_path):
    state = tmp_path / "bell.json"
    fileio.density_to_json(bell_state(), state)
    channel = tmp_path / "depol.json"
    fileio.kraus_to_json(kraus_from_diagonal_mueller(0.5, 0.5, 0.5), channel)
    prefix = str(tmp_path / "opp")
    code, _, _ = run(
        capsys, "propagate", "--state", str(state), "--channel", str(channel),
        "--mode", "opp", "--out", prefix,
    )
    assert code == 0
    metrics = fileio.read_json(f"{prefix}.metrics.json")
    assert np.isclose(metrics["purity"], 0.4375, atol=1e-12)
    assert np.isclose(metrics["dephasing"], 0.5, atol=1e-12)


@pytest.mark.parametrize("mode, purity, concurrence", [
    ("tpp-correlated", 1.0, 1.0),
    ("tpp-independent", 0.25, 0.0),
])
def test_propagate_uniform_pauli_ensemble(capsys, tmp_path, mode, purity, concurrence):
    # The mean Mueller matrix is diag(1, 0, 0, 0) in both modes; only the
    # second moment tells them apart.  Both photons crossing the same Pauli
    # keep the Bell state, independent Paulis leave the maximally mixed one.
    state = tmp_path / "bell.json"
    fileio.density_to_json(bell_state(), state)
    channel = tmp_path / "pauli.json"
    fileio.kraus_to_json(qpol2.KrausEnsemble.pauli([0.25] * 4), channel)
    prefix = str(tmp_path / "out")
    code, _, _ = run(
        capsys, "propagate", "--state", str(state), "--channel", str(channel),
        "--mode", mode, "--out", prefix,
    )
    assert code == 0
    metrics = fileio.read_json(f"{prefix}.metrics.json")
    assert np.isclose(metrics["purity"], purity, atol=1e-12)
    assert np.isclose(metrics["concurrence"], concurrence, atol=1e-9)


@pytest.mark.parametrize("mode", ["opp", "tpp-independent", "tpp-correlated"])
def test_propagate_faint_output(capsys, tmp_path, mode):
    # A pair nearly orthogonal to a polarizer: the output's rounding-level
    # negative eigenvalues are projected away, and the run succeeds.
    ch, rho = faint_polarizer_case(np.random.default_rng(65))
    state, channel = tmp_path / "faint.json", tmp_path / "polarizer.json"
    fileio.density_to_json(rho, state)
    fileio.kraus_to_json(ch, channel)
    prefix = str(tmp_path / "out")
    code, out, err = run(
        capsys, "propagate", "--state", str(state), "--channel", str(channel),
        "--mode", mode, "--out", prefix,
    )
    assert (code, err) == (0, "")
    assert out.startswith("concurrence=")
    qpol2.check_density(fileio.density_from_json(f"{prefix}.state.json"), dim=4)


def test_propagate_file_errors(capsys, tmp_path):
    state2 = tmp_path / "one.json"
    fileio.density_to_json(np.eye(2) / 2, state2)
    channel = tmp_path / "id.json"
    fileio.kraus_to_json(qpol2.KrausEnsemble.identity(), channel)
    code, _, _ = run(
        capsys, "propagate", "--state", str(state2), "--channel", str(channel),
        "--out", str(tmp_path / "o"),
    )
    assert code == 2  # one-photon states are not a two-photon pipeline input
    code, _, _ = run(
        capsys, "propagate", "--state", str(tmp_path / "absent.json"),
        "--channel", str(channel), "--out", str(tmp_path / "o"),
    )
    assert code == 2
    state = tmp_path / "bell.json"
    fileio.density_to_json(bell_state(), state)
    numbers = tmp_path / "numbers.json"
    fileio.write_json({"items": [1, 2]}, numbers)
    bad_state = tmp_path / "badstate.json"
    fileio.write_json({"dim": 4, "re": {"a": 1}, "im": np.zeros((4, 4)).tolist()},
                      bad_state)
    nan_state = tmp_path / "nanstate.json"
    re = bell_state().real
    re[1, 1] = np.nan
    fileio.write_json({"dim": 4, "re": re.tolist(), "im": np.zeros((4, 4)).tolist()},
                      nan_state)
    string_state = tmp_path / "stringstate.json"
    fileio.write_json(STRING_DENSITY, string_state)
    cases = [(state, numbers), (bad_state, channel), (nan_state, channel),
             (string_state, channel)]
    for name, items in MALFORMED_KRAUS_ITEMS.items():
        cases.append((state, tmp_path / f"{name}.json"))
        fileio.write_json({"items": items}, cases[-1][1])
    for state_path, channel_path in cases:
        code, _, err = run(
            capsys, "propagate", "--state", str(state_path),
            "--channel", str(channel_path), "--out", str(tmp_path / "o"),
        )
        assert code == 2
        assert "Traceback" not in err


def test_unparsable_files_exit_2(capsys, tmp_path):
    # A state that is not UTF-8 and a channel nested past the recursion limit.
    state, channel = tmp_path / "bell.json", tmp_path / "id.json"
    fileio.density_to_json(bell_state(), state)
    fileio.kraus_to_json(qpol2.KrausEnsemble.identity(), channel)
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff" + state.read_bytes())
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    out = ["--out", str(tmp_path / "o")]
    for argv in (["tomo", "--state", str(binary)] + out,
                 ["fit", "--kin", str(binary), "--kout", str(state)],
                 ["propagate", "--state", str(state), "--channel", str(deep)] + out):
        code, _, err = run(capsys, *argv)
        assert code == 2, argv
        assert err.startswith("error: ") and "Traceback" not in err


# ------------------------------------------------------------ fuzzed files

def numeric_leaves(doc, path=()):
    """Key paths to every number in a parsed JSON document."""
    if isinstance(doc, (dict, list)):
        pairs = doc.items() if isinstance(doc, dict) else enumerate(doc)
        return [leaf for key, value in pairs for leaf in numeric_leaves(value, path + (key,))]
    return [path] if type(doc) in (int, float) else []


@pytest.fixture(scope="module")
def valid_documents(tmp_path_factory):
    """A working directory, a valid document of each kind, and the argv that runs it."""
    work = tmp_path_factory.mktemp("fuzz")
    state, channel = work / "bell.json", work / "depol.json"
    fileio.density_to_json(bell_state(), state)
    fileio.kraus_to_json(kraus_from_diagonal_mueller(0.5, 0.5, 0.5), channel)
    mc = dict(schema="qpol2/v1", mu_s=10.0, g=0.9, acceptance_deg=45.0, n_photons=20,
              seed=3)
    docs = {"density": json.loads(state.read_text()),
            "kraus": json.loads(channel.read_text()),
            "mc": dict(mc, d=0.01), "mc_grid": dict(mc, eta_grid=[0.001, 0.002])}

    def argv(name, path):
        out = ["--out", str(work / "out")]
        if name == "density":
            return ["propagate", "--state", str(path), "--channel", str(channel)] + out
        if name == "kraus":
            return ["propagate", "--state", str(state), "--channel", str(path)] + out
        return ["mc", "--config", str(path)] + out

    for name, doc in docs.items():
        path = work / f"valid_{name}.json"
        path.write_text(json.dumps(doc))
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv(name, path)) == 0, name
    return work, docs, argv


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_fuzzed_number_exits_2(valid_documents, data):
    # One number of a valid state, Kraus or mc document turns into a string,
    # null, object, nested list or non-finite float.  (A boolean among
    # numbers is left out: numpy reads [[true, 0.5]] as [[1.0, 0.5]].)
    work, docs, argv = valid_documents
    name = data.draw(st.sampled_from(sorted(docs)))
    doc = copy.deepcopy(docs[name])
    *keys, last = data.draw(st.sampled_from(numeric_leaves(doc)))
    parent = doc
    for key in keys:
        parent = parent[key]
    parent[last] = data.draw(st.sampled_from(
        ["0.5", None, {}, {"w": 0.5}, [[0.5]], math.nan, math.inf, -math.inf]))
    path = work / "fuzzed.json"
    path.write_text(json.dumps(doc))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv(name, path))
    assert code == 2
    assert err.getvalue().startswith("error: ") and "Traceback" not in err.getvalue()


# -------------------------------------------------------------------- tomo

def test_tomo_noiseless_bell(capsys, tmp_path):
    state = tmp_path / "bell.json"
    fileio.density_to_json(bell_state(), state)
    prefix = str(tmp_path / "t")
    code, out, _ = run(
        capsys, "tomo", "--state", str(state), "--pairs", "1000000",
        "--out", prefix,
    )
    assert code == 0
    fid = float(out.split("fidelity=")[1])
    assert fid > 1 - 1e-9
    lines = (tmp_path / "t.counts.csv").read_text().strip().splitlines()
    assert len(lines) == 37
    rho_hat = fileio.density_from_json(f"{prefix}.state.json")
    assert np.allclose(rho_hat, bell_state(), atol=1e-5)


def test_tomo_noisy_requires_seed(capsys, tmp_path):
    state = tmp_path / "bell.json"
    fileio.density_to_json(bell_state(), state)
    code, _, _ = run(
        capsys, "tomo", "--state", str(state), "--noisy",
        "--out", str(tmp_path / "t"),
    )
    assert code == 2
    for seed in ("-1", "1.5"):
        code, _, err = run(
            capsys, "tomo", "--state", str(state), "--noisy", "--seed", seed,
            "--out", str(tmp_path / "t"),
        )
        assert code == 2 and "--seed" in err


def test_tomo_noisy_fidelity(capsys, tmp_path):
    state = tmp_path / "st.json"
    fileio.density_to_json(concurrence_state(0.9), state)
    code, out, _ = run(
        capsys, "tomo", "--state", str(state), "--pairs", "10000",
        "--seed", "4", "--noisy", "--out", str(tmp_path / "t"),
    )
    assert code == 0
    assert float(out.split("fidelity=")[1]) > 0.99


def test_tomo_pairs_validation(capsys, tmp_path):
    state = tmp_path / "bell.json"
    fileio.density_to_json(bell_state(), state)
    code, _, _ = run(
        capsys, "tomo", "--state", str(state), "--pairs", "0",
        "--out", str(tmp_path / "t"),
    )
    assert code == 2


# --------------------------------------------------------------------- fit

def test_fit_identity_roundtrip(capsys, tmp_path):
    kin = tmp_path / "kin.csv"
    fileio.write_matrix_csv(K_BELL, kin)
    code, out, _ = run(capsys, "fit", "--kin", str(kin), "--kout", str(kin))
    assert code == 0
    params = [float(v) for v in out.split("params=")[1].split()[0].split(",")]
    assert np.allclose(params, [1.0, 1.0, 1.0], atol=1e-8)


def test_fit_diagonal_recovery_to_json(capsys, tmp_path):
    kin = tmp_path / "kin.csv"
    fileio.write_matrix_csv(K_BELL, kin)
    kout = tmp_path / "kout.csv"
    m = np.diag([1.0, 0.8, 0.6, 0.9])
    fileio.write_matrix_csv(propagate_tensor(m, K_BELL), kout)
    result_path = tmp_path / "fit.json"
    code, _, _ = run(
        capsys, "fit", "--kin", str(kin), "--kout", str(kout),
        "--out", str(result_path),
    )
    assert code == 0
    doc = fileio.read_json(result_path)
    assert doc["model"] == "diagonal"
    assert doc["converged"] is True
    assert np.abs(np.array(doc["params"]) - [0.8, 0.6, 0.9]).max() < 1e-8


def test_fit_diagonal_input_is_closed_form(capsys, tmp_path):
    kin = tmp_path / "kin.csv"
    fileio.write_matrix_csv(K_BELL, kin)
    kout = tmp_path / "kout.csv"
    fileio.write_matrix_csv(propagate_tensor(np.diag([1.0, 0.8, 0.6, 0.9]), K_BELL), kout)
    for model in ("diagonal", "isotropic"):
        result_path = tmp_path / f"{model}.json"
        code, _, _ = run(capsys, "fit", "--kin", str(kin), "--kout", str(kout),
                         "--model", model, "--out", str(result_path))
        assert code == 0
        assert fileio.read_json(result_path)["iterations"] == 0


def test_fit_accepts_density_json_inputs(capsys, tmp_path):
    state = tmp_path / "bell.json"
    fileio.density_to_json(bell_state(), state)
    code, out, _ = run(
        capsys, "fit", "--kin", str(state), "--kout", str(state),
        "--model", "isotropic",
    )
    assert code == 0
    assert "converged=True" in out


def test_fit_general_single_input_exits_3(capsys, tmp_path):
    kin = tmp_path / "kin.csv"
    fileio.write_matrix_csv(K_BELL, kin)
    report_path = tmp_path / "report.json"
    code, _, err = run(
        capsys, "fit", "--kin", str(kin), "--kout", str(kin),
        "--model", "general", "--seed", "0", "--out", str(report_path),
    )
    assert code == 3
    assert "lie_algebra_dim=6" in err
    doc = fileio.read_json(report_path)
    assert doc["stabilizer"]["lie_algebra_dim"] == 6
    assert doc["stabilizer"]["identifiable"] is False


def test_fit_argument_validation(capsys, tmp_path):
    kin = tmp_path / "kin.csv"
    fileio.write_matrix_csv(K_BELL, kin)
    code, _, _ = run(capsys, "fit", "--kin", str(kin), "--kout", str(kin),
                     "--kout", str(kin))
    assert code == 2  # mismatched pair counts
    code, _, _ = run(
        capsys, "fit", "--kin", str(kin), "--kin", str(kin),
        "--kout", str(kin), "--kout", str(kin),
    )
    assert code == 2  # diagonal model takes exactly one pair
    code, _, _ = run(
        capsys, "fit", "--kin", str(tmp_path / "absent.csv"), "--kout", str(kin)
    )
    assert code == 2
    code, _, err = run(capsys, "fit", "--kin", str(kin), "--kout", str(kin),
                       "--model", "general", "--seed", "-1")
    assert code == 2 and "--seed" in err
    nan_out = tmp_path / "nan.csv"
    k = K_BELL.copy()
    k[2, 2] = np.nan
    fileio.write_matrix_csv(k, nan_out)
    code, _, err = run(capsys, "fit", "--kin", str(kin), "--kout", str(nan_out))
    assert code == 2 and "Traceback" not in err


# ------------------------------------------------------------------- image

def test_image_reconstruction(capsys, tmp_path):
    hh, ww = np.meshgrid(np.linspace(0, 1, 3), np.linspace(0, 1, 4),
                         indexing="ij")
    truth = np.stack(
        [np.ones((3, 4)), 0.3 + 0.6 * hh, 0.3 + 0.6 * ww, 0.4 + 0.3 * hh],
        axis=2,
    )
    tensors = np.einsum("hwa,ab,hwb->hwab", truth, K_BELL, truth)
    grid = tmp_path / "grid.bin"
    fileio.write_grid(tensors, grid)
    kin = tmp_path / "kin.csv"
    fileio.write_matrix_csv(K_BELL, kin)
    out_dir = tmp_path / "map"
    code, out, _ = run(
        capsys, "image", "--kin", str(kin), "--grid", str(grid),
        "--out-dir", str(out_dir),
    )
    assert code == 0
    assert "pixels=12" in out
    assert "n_failed=0" in out
    # The printed figures are the ones summary.json holds.
    fields = dict(kv.split("=") for kv in out.split())
    summary = fileio.read_json(out_dir / "summary.json")
    assert float(fields["max_residual"]) == summary["max_residual"]
    assert int(fields["n_failed"]) == summary["n_failed"]
    m11 = np.loadtxt(out_dir / "m11.csv", delimiter=",")
    assert np.abs(m11 - truth[:, :, 1]).max() < 1e-8
    # Re-running yields byte-identical planes.
    out_dir2 = tmp_path / "map2"
    run(capsys, "image", "--kin", str(kin), "--grid", str(grid),
        "--out-dir", str(out_dir2))
    assert (out_dir / "m11.csv").read_bytes() == (out_dir2 / "m11.csv").read_bytes()


def test_image_single_pixel(capsys, tmp_path):
    m = np.diag([1.0, 0.7, 0.6, 0.5])
    tensors = propagate_tensor(m, K_BELL)[None, None]
    grid = tmp_path / "grid.bin"
    fileio.write_grid(tensors, grid)
    kin = tmp_path / "kin.csv"
    fileio.write_matrix_csv(K_BELL, kin)
    out_dir = tmp_path / "one"
    code, out, _ = run(
        capsys, "image", "--kin", str(kin), "--grid", str(grid),
        "--out-dir", str(out_dir),
    )
    assert code == 0
    assert "pixels=1" in out
    assert abs(float(np.loadtxt(out_dir / "m11.csv", delimiter=",")) - 0.7) < 1e-8


def test_image_bad_grid_file(capsys, tmp_path):
    kin = tmp_path / "kin.csv"
    fileio.write_matrix_csv(K_BELL, kin)
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"xy")
    code, _, _ = run(
        capsys, "image", "--kin", str(kin), "--grid", str(bad),
        "--out-dir", str(tmp_path / "m"),
    )
    assert code == 2


# ----------------------------------------------------------------- general

def test_usage_and_help_exit_codes(capsys):
    assert run(capsys)[0] == 2  # a subcommand is required
    assert run(capsys, "--help")[0] == 0
    assert run(capsys, "unknown-command")[0] == 2


def test_stdout_uses_full_precision(capsys):
    code, out, _ = run(capsys, "sweep", "--steps", "2", "--modes", "opp")
    assert code == 0
    # One third appears in no row; spot-check that long decimals survive.
    row0 = out.strip().splitlines()[1].split(",")
    assert row0[2] == "0.25"  # purity at m = 0 prints exactly


def test_cli_import_loads_no_scipy():
    # scipy is a test-only dependency: the installed package runs without it.
    src = str(Path(qpol2.__file__).resolve().parents[1])
    probe = ("import sys, qpol2.cli; "
             "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    assert done.stdout.strip() == "[]"
