"""JSON/CSV/binary file formats and their validation."""

import gc
import json
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qpol2
from qpol2 import fileio
from qpol2 import (
    ChannelError,
    FormatError,
    KrausEnsemble,
    bell_state,
    correlation_tensor,
    reconstruct_image,
    simulate_counts,
)
from conftest import (
    K_BELL,
    MALFORMED_KRAUS_ITEMS,
    STRING_DENSITY,
    random_cptp_ensemble,
    random_density,
)


def test_write_json_injects_schema(tmp_path):
    path = tmp_path / "doc.json"
    fileio.write_json({"x": 1}, path)
    raw = json.loads(path.read_text())
    assert raw["schema"] == "qpol2/v1"
    assert raw["x"] == 1
    assert fileio.read_json(path)["x"] == 1


def test_read_json_rejects_bad_documents(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(FormatError):
        fileio.read_json(bad)
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps({"schema": "other/v9", "x": 1}))
    with pytest.raises(FormatError):
        fileio.read_json(wrong)
    untagged = tmp_path / "untagged.json"
    untagged.write_text(json.dumps({"x": 1}))
    with pytest.raises(FormatError):
        fileio.read_json(untagged)


def test_density_json_roundtrip(tmp_path):
    for seed in range(5):
        rho = random_density(np.random.default_rng(seed))
        path = tmp_path / f"rho{seed}.json"
        fileio.density_to_json(rho, path)
        assert np.array_equal(fileio.density_from_json(path), rho)
    path2 = tmp_path / "one.json"
    fileio.density_to_json(np.eye(2) / 2, path2)
    assert fileio.density_from_json(path2).shape == (2, 2)
    # Signed zeros survive; np.array_equal would call -0.0 equal to 0.0.
    signed = np.eye(2, dtype=complex) / 2
    signed.real[[0, 1], [1, 0]] = -0.0
    signed.imag[[0, 1, 1], [1, 0, 1]] = -0.0
    fileio.density_to_json(signed, path2)
    loaded = fileio.density_from_json(path2)
    assert loaded.view(np.uint64).tolist() == signed.view(np.uint64).tolist()


def test_density_json_validates_dimension(tmp_path):
    path = tmp_path / "odd.json"
    fileio.write_json(
        {"dim": 3, "re": np.eye(3).tolist(), "im": np.zeros((3, 3)).tolist()}, path
    )
    with pytest.raises(FormatError):
        fileio.density_from_json(path)


def test_kraus_json_roundtrip(tmp_path):
    for seed in range(5):
        ch = random_cptp_ensemble(np.random.default_rng(seed), k=3)
        path = tmp_path / f"ch{seed}.json"
        fileio.kraus_to_json(ch, path)
        loaded = fileio.kraus_from_json(path)
        assert np.array_equal(loaded.weights, ch.weights)
        assert np.array_equal(loaded.jones, ch.jones)


def test_kraus_json_bytes_match_write_json(tmp_path):
    rng = np.random.default_rng(4)
    jones = rng.normal(size=(40, 2, 2)) + 1j * rng.normal(size=(40, 2, 2))
    jones[0] = -0.0
    jones[1, 0, 0] = 1e-300
    jones /= 10 * np.abs(jones).max()
    weights = rng.uniform(size=40)
    # Past two 1024-item blocks: a capped slab ensemble (equal weights, zero
    # imaginary parts, repeated identity matrices) and signed zeros mixed with
    # the smallest subnormal.
    slab = qpol2.simulate(qpol2.Medium(10.0, 0.9, 0.025, acceptance_half_angle=0.8), 2600, 3)
    n = 2049
    assert len(slab.weights) >= n
    special = np.array([0.0, -0.0, 5e-324])
    mixed_w = rng.uniform(size=n)
    mixed_w[rng.random(n) < 0.3] = 0.0
    mixed_w /= mixed_w.sum()
    mixed_w[mixed_w == 0.0] = rng.choice(special, np.count_nonzero(mixed_w == 0.0))
    mixed = np.empty((n, 2, 2), dtype=complex)
    mixed.real = rng.normal(size=(n, 2, 2)) / 20
    mixed.imag = rng.normal(size=(n, 2, 2)) / 20
    for part in (mixed.real, mixed.imag):
        pick = rng.random(part.shape) < 0.5
        part[pick] = rng.choice(special, np.count_nonzero(pick))
    cases = [KrausEnsemble.identity(), KrausEnsemble(weights / weights.sum(), jones),
             KrausEnsemble(np.full(n, 1.0 / n), slab.jones[:n]), KrausEnsemble(mixed_w, mixed)]
    for i, ch in enumerate(cases):
        fast, ref = tmp_path / f"fast{i}.json", tmp_path / f"ref{i}.json"
        fileio.kraus_to_json(ch, fast)
        items = [{"w": float(w), "re": j.real.tolist(), "im": j.imag.tolist()}
                 for w, j in zip(ch.weights, ch.jones)]
        fileio.write_json({"items": items}, ref)
        assert fast.read_bytes() == ref.read_bytes()
        loaded = fileio.kraus_from_json(fast)
        assert loaded.weights.tobytes() == ch.weights.tobytes()
        assert loaded.jones.tobytes() == ch.jones.tobytes()


def test_kraus_json_validation(tmp_path):
    empty = tmp_path / "empty.json"
    fileio.write_json({"items": []}, empty)
    with pytest.raises(FormatError):
        fileio.kraus_from_json(empty)
    missing_w = tmp_path / "noweight.json"
    fileio.write_json(
        {"items": [{"re": np.eye(2).tolist(), "im": np.zeros((2, 2)).tolist()}]},
        missing_w,
    )
    with pytest.raises(FormatError):
        fileio.kraus_from_json(missing_w)
    numbers = tmp_path / "numbers.json"
    fileio.write_json({"items": [1, 2]}, numbers)
    with pytest.raises(FormatError):
        fileio.kraus_from_json(numbers)
    for name, items in MALFORMED_KRAUS_ITEMS.items():
        path = tmp_path / f"{name}.json"
        fileio.write_json({"items": items}, path)
        with pytest.raises(FormatError):
            fileio.kraus_from_json(path)
    bad_state = tmp_path / "badstate.json"
    fileio.write_json({"dim": 2, "re": {"a": 1}, "im": np.zeros((2, 2)).tolist()},
                      bad_state)
    with pytest.raises(FormatError):
        fileio.density_from_json(bad_state)
    string_state = tmp_path / "stringstate.json"
    fileio.write_json(STRING_DENSITY, string_state)
    with pytest.raises(FormatError):
        fileio.density_from_json(string_state)
    # numpy reads a boolean among numbers as 0 or 1.
    bool_state = tmp_path / "boolstate.json"
    fileio.write_json({"dim": 2, "re": [[0.5, 0.0], [0.0, 0.5]],
                       "im": [[0.0, 0.0], [0.0, False]]}, bool_state)
    with pytest.raises(FormatError):
        fileio.density_from_json(bool_state)
    # A structurally valid file with unphysical weights fails ensemble checks.
    bad_sum = tmp_path / "badsum.json"
    fileio.write_json(
        {"items": [{"w": 0.4, "re": np.eye(2).tolist(),
                    "im": np.zeros((2, 2)).tolist()}]},
        bad_sum,
    )
    with pytest.raises(ChannelError):
        fileio.kraus_from_json(bad_sum)


def test_matrix_csv_roundtrip_is_exact(tmp_path):
    # 17 significant digits reproduce float64 bit-for-bit.
    for seed in range(5):
        rng = np.random.default_rng(seed)
        m = rng.normal(size=(4, 4)) * 10.0 ** rng.integers(-8, 8)
        path = tmp_path / f"m{seed}.csv"
        fileio.write_matrix_csv(m, path)
        assert np.array_equal(fileio.read_matrix_csv(path), m)


def test_csv_writer_bytes_match_savetxt(tmp_path):
    # np.savetxt is the oracle for every plane the package writes.
    rng = np.random.default_rng(15)
    special = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1e308, -1e308,
                        3.0, -7.0, 2.0**53, 0.1])
    shapes = [(1,), (9,), (1, 1), (1, 17), (17, 1), (64, 64)]
    shapes += [tuple(rng.integers(1, 65, size=rng.integers(1, 3))) for _ in range(520)]
    ours, oracle = tmp_path / "ours.csv", tmp_path / "oracle.csv"
    for shape in shapes:
        a = rng.normal(size=shape) * 10.0 ** rng.integers(-300, 300, size=shape)
        picked = rng.random(shape) < 0.25
        a[picked] = rng.choice(special, size=picked.sum())
        fileio.write_matrix_csv(a, ours)
        np.savetxt(oracle, a, fmt="%.17g", delimiter=",")
        assert ours.read_bytes() == oracle.read_bytes(), shape
    tensors = np.stack([np.diag(np.concatenate([[1.0], rng.uniform(0, 1, 3)])) @ K_BELL
                        for _ in range(15)]).reshape(3, 5, 4, 4)
    tensors[1, 2, 0, 1] = np.nan
    pm = reconstruct_image(K_BELL, tensors)
    fileio.write_pixel_map(pm, tmp_path / "map")
    planes = {"m11": pm.plane(0), "m22": pm.plane(1), "m33": pm.plane(2),
              "residual": pm.residuals}
    for name, plane in planes.items():
        np.savetxt(oracle, plane, fmt="%.17g", delimiter=",")
        assert (tmp_path / "map" / f"{name}.csv").read_bytes() == oracle.read_bytes()


def test_matrix_csv_validation(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,2\n3,4\n")
    with pytest.raises(FormatError):
        fileio.read_matrix_csv(path)
    text = tmp_path / "text.csv"
    text.write_text("a,b,c,d\n" * 4)
    with pytest.raises(FormatError):
        fileio.read_matrix_csv(text)


def test_empty_matrix_csv_raises_format_error_without_warning(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FormatError):
            fileio.read_matrix_csv(path)


def test_counts_csv_roundtrip(tmp_path):
    records = simulate_counts(bell_state(), 1234, seed=5, noisy=True)
    path = tmp_path / "counts.csv"
    fileio.write_counts_csv(records, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "setting_a,setting_b,pairs,counts"
    assert len(lines) == 37  # header + 36 settings
    loaded = fileio.read_counts_csv(path)
    assert [(r.setting_a, r.setting_b, r.counts, r.pairs) for r in loaded] == [
        (r.setting_a, r.setting_b, r.counts, r.pairs) for r in records
    ]
    assert all(
        np.isclose(r.expected, r.counts / r.pairs) for r in loaded
    )


def test_counts_csv_header_validation(tmp_path):
    path = tmp_path / "counts.csv"
    path.write_text("a,b,n,k\nH,V,10,5\n")
    with pytest.raises(FormatError):
        fileio.read_counts_csv(path)
    # pairs (at least 1) and counts (at least 0) are plain ASCII decimal integers.
    garbled = tmp_path / "garbled.csv"
    for row in ["H,V,ten,5", "H,V,1_000,5", "H,V, 1000 ,5", "H,V,+1000,5",
                "H,V,\u0661\u0660\u0660\u0660,5", "H,V,1000,-5", "H,V,0,0", "H,V,-10,5",
                "H,V,1000"]:
        garbled.write_text(f"setting_a,setting_b,pairs,counts\n{row}\n", encoding="utf-8")
        with pytest.raises(FormatError):
            fileio.read_counts_csv(garbled)


def test_grid_roundtrip_and_layout(tmp_path):
    rng = np.random.default_rng(0)
    tensors = rng.normal(size=(3, 5, 4, 4))
    path = tmp_path / "grid.bin"
    fileio.write_grid(tensors, path)
    raw = path.read_bytes()
    width, height = struct.unpack("<II", raw[:8])
    assert (width, height) == (5, 3)
    assert len(raw) == 8 + 3 * 5 * 16 * 8
    # Row-major pixel order, 16 float64 values per pixel.
    first_pixel = np.frombuffer(raw[8 : 8 + 128], dtype="<f8").reshape(4, 4)
    assert np.array_equal(first_pixel, tensors[0, 0])
    assert np.array_equal(fileio.read_grid(path), tensors)


def test_grid_validation(tmp_path):
    with pytest.raises(ValueError):
        fileio.write_grid(np.zeros((2, 2, 3, 3)), tmp_path / "x.bin")
    short = tmp_path / "short.bin"
    short.write_bytes(b"\x01\x00")
    with pytest.raises(FormatError):
        fileio.read_grid(short)
    mismatched = tmp_path / "mismatch.bin"
    mismatched.write_bytes(struct.pack("<II", 2, 2) + b"\x00" * 100)
    with pytest.raises(FormatError):
        fileio.read_grid(mismatched)


def test_write_pixel_map_outputs(tmp_path):
    diag = np.stack(
        [np.ones((2, 3)), np.full((2, 3), 0.8), np.full((2, 3), 0.6),
         np.full((2, 3), 0.9)],
        axis=2,
    )
    tensors = np.einsum("hwa,ab,hwb->hwab", diag, K_BELL, diag)
    pm = reconstruct_image(K_BELL, tensors)
    out = tmp_path / "map"
    fileio.write_pixel_map(pm, out)
    for name in ("m11", "m22", "m33", "residual"):
        plane = np.loadtxt(out / f"{name}.csv", delimiter=",")
        assert plane.shape == (2, 3)
    summary = fileio.read_json(out / "summary.json")
    assert summary["model"] == "diagonal"
    assert (summary["width"], summary["height"]) == (3, 2)
    assert summary["n_failed"] == 0
    assert summary["max_residual"] < 1e-10
    assert summary["mean_residual"] <= summary["max_residual"]


def test_write_pixel_map_isotropic_plane_name(tmp_path):
    tensors = np.broadcast_to(K_BELL, (1, 1, 4, 4)).copy()
    pm = reconstruct_image(K_BELL, tensors, model="isotropic")
    out = tmp_path / "iso"
    fileio.write_pixel_map(pm, out)
    assert (out / "m.csv").exists()
    assert not (out / "m11.csv").exists()


def test_read_mc_config(tmp_path):
    good = tmp_path / "cfg.json"
    fileio.write_json(
        {"mu_s": 10.0, "g": 0.9, "d": 0.1, "n_photons": 100, "seed": 1}, good
    )
    cfg = fileio.read_mc_config(good)
    assert cfg["mu_s"] == 10.0
    grid = tmp_path / "grid.json"
    fileio.write_json(
        {"mu_s": 10.0, "g": 0.9, "eta_grid": [0.1, 0.2], "n_photons": 100,
         "seed": 1},
        grid,
    )
    assert fileio.read_mc_config(grid)["eta_grid"] == [0.1, 0.2]


def test_read_mc_config_validation(tmp_path):
    both = tmp_path / "both.json"
    fileio.write_json(
        {"mu_s": 1.0, "g": 0.5, "d": 0.1, "eta_grid": [0.1], "n_photons": 10,
         "seed": 0},
        both,
    )
    with pytest.raises(FormatError):
        fileio.read_mc_config(both)
    neither = tmp_path / "neither.json"
    fileio.write_json({"mu_s": 1.0, "g": 0.5, "n_photons": 10, "seed": 0}, neither)
    with pytest.raises(FormatError):
        fileio.read_mc_config(neither)
    missing = tmp_path / "missing.json"
    fileio.write_json({"g": 0.5, "d": 0.1, "n_photons": 10, "seed": 0}, missing)
    with pytest.raises(FormatError):
        fileio.read_mc_config(missing)
    bool_grid = tmp_path / "boolgrid.json"
    fileio.write_json({"mu_s": 1.0, "g": 0.5, "eta_grid": [0.1, True], "n_photons": 10,
                       "seed": 0}, bool_grid)
    with pytest.raises(FormatError):
        fileio.read_mc_config(bool_grid)


def test_load_tensor_from_both_formats(tmp_path):
    rho = bell_state()
    jpath = tmp_path / "state.json"
    fileio.density_to_json(rho, jpath)
    assert np.allclose(fileio.load_tensor(jpath), correlation_tensor(rho))
    cpath = tmp_path / "tensor.csv"
    fileio.write_matrix_csv(K_BELL, cpath)
    assert np.array_equal(fileio.load_tensor(cpath), K_BELL)


def test_readers_reject_unparsable_text(tmp_path):
    # Invalid UTF-8, arrays nested past the recursion limit, and a counts
    # field past the csv module's size limit.
    bad_utf8 = tmp_path / "bad_utf8"
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    long_field = tmp_path / "long_field.csv"
    long_field.write_text('setting_a,setting_b,pairs,counts\nH,"' + "x" * 200_000 + "\n")
    with pytest.raises(FormatError):
        fileio.read_counts_csv(long_field)
    for prefix in (b"\xff", b"setting_a,setting_b,pairs,counts\nH,\xff,10,5\n"):
        bad_utf8.write_bytes(prefix + b'{"schema": "qpol2/v1"}')
        for reader in (fileio.read_json, fileio.read_counts_csv):
            with pytest.raises(FormatError):
                reader(bad_utf8)
    for reader in (fileio.read_json, fileio.kraus_from_json):
        with pytest.raises(FormatError):
            reader(deep)


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """Each byte-level reader with the bytes of one valid file it reads."""
    work = tmp_path_factory.mktemp("bytes")
    writes = [
        (fileio.density_from_json, lambda p: fileio.density_to_json(bell_state(), p)),
        (fileio.kraus_from_json,
         lambda p: fileio.kraus_to_json(qpol2.kraus_from_diagonal_mueller(0.5, 0.6, 0.7), p)),
        (fileio.read_mc_config,
         lambda p: fileio.write_json(dict(mu_s=10.0, g=0.9, d=0.01, n_photons=20, seed=3), p)),
        (fileio.read_matrix_csv, lambda p: fileio.write_matrix_csv(K_BELL, p)),
        (fileio.read_counts_csv,
         lambda p: fileio.write_counts_csv(simulate_counts(bell_state(), 50, seed=1,
                                                           noisy=True), p)),
        (fileio.read_grid,
         lambda p: fileio.write_grid(np.random.default_rng(0).normal(size=(1, 2, 4, 4)), p)),
    ]
    files = []
    for reader, write in writes:
        path = work / reader.__name__
        write(path)
        reader(path)
        files.append((reader, path.read_bytes()))
    return work, files


def _flip(raw, flips):
    out = bytearray(raw)
    for pos, byte in flips:
        out[pos] = byte
    return bytes(out)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_fuzzed_bytes_read_or_raise_format_error(valid_files, data):
    # Random bytes, a truncation, or a few replaced bytes of a valid file.
    work, files = valid_files
    reader, raw = data.draw(st.sampled_from(files))
    fuzzed = data.draw(st.one_of(
        st.binary(max_size=300),
        st.integers(0, len(raw) - 1).map(lambda n: raw[:n]),
        st.lists(st.tuples(st.integers(0, len(raw) - 1), st.integers(0, 255)),
                 min_size=1, max_size=4).map(lambda flips: _flip(raw, flips)),
    ))
    path = work / "fuzzed"
    path.write_bytes(fuzzed)
    # A well-formed Kraus file with unphysical numbers is a ChannelError
    # (test_kraus_json_validation).
    allowed = (FormatError, ChannelError) if reader is fileio.kraus_from_json else FormatError
    try:
        reader(path)
    except allowed:
        pass


def test_kraus_from_json_restores_gc_state(tmp_path):
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    fileio.kraus_to_json(KrausEnsemble.identity(), good)
    fileio.write_json({"items": [1, 2]}, bad)
    was_on = gc.isenabled()
    try:
        for on in (True, False):
            (gc.enable if on else gc.disable)()
            fileio.kraus_from_json(good)
            assert gc.isenabled() is on
            with pytest.raises(FormatError):
                fileio.kraus_from_json(bad)
            assert gc.isenabled() is on
    finally:
        (gc.enable if was_on else gc.disable)()


def test_kraus_from_json_runs_no_collection(tmp_path):
    # The parse makes about 70 000 containers; with the collector on they
    # would trigger about a hundred collections that free nothing.  Had the
    # read turned the collector on before freeing them, the next allocation
    # would start a collection: a few containers made afterwards (well under
    # the young threshold) check that too.
    n = 10_000
    rng = np.random.default_rng(2)
    jones = np.exp(2j * np.pi * rng.random((n, 2))[:, :, None]) * np.eye(2)
    path = tmp_path / "big.json"
    fileio.kraus_to_json(KrausEnsemble(np.full(n, 1.0 / n), jones), path)
    starts = []

    def hook(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    gc.collect()
    gc.callbacks.append(hook)
    try:
        loaded = fileio.kraus_from_json(path)
        [[i] for i in range(100)]
    finally:
        gc.callbacks.remove(hook)
    assert gc.isenabled()
    assert starts == []
    assert loaded.jones.tobytes() == jones.tobytes()
