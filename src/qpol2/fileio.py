"""File formats: JSON for states/ensembles/results, CSV for matrices, binary grids.

Every JSON document carries the schema tag "qpol2/v1".  Matrix CSV files
are 4 lines of 4 comma-separated values at 17 significant digits.  Image
grids are binary: a little-endian uint32 (width, height) header followed
by row-major pixels of 16 little-endian float64 tensor entries each.
"""

import csv
import gc
import json
import os
import struct
import warnings
from itertools import chain

import numpy as np

from .channels import KrausEnsemble
from .exceptions import FormatError
from .polarization import correlation_tensor
from .tomography import CountRecord

__all__ = [
    "SCHEMA",
    "write_json",
    "read_json",
    "density_to_json",
    "density_from_json",
    "kraus_to_json",
    "kraus_from_json",
    "write_matrix_csv",
    "read_matrix_csv",
    "write_counts_csv",
    "read_counts_csv",
    "write_grid",
    "read_grid",
    "write_pixel_map",
    "read_mc_config",
    "load_tensor",
]

SCHEMA = "qpol2/v1"


def write_json(payload: dict, path):
    doc = {"schema": SCHEMA}
    doc.update(payload)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def read_json(path) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    # ValueError: JSONDecodeError, invalid UTF-8, and integers past the
    # interpreter's digit limit; RecursionError: arrays nested too deeply.
    except (ValueError, RecursionError) as exc:
        raise FormatError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict) or doc.get("schema") != SCHEMA:
        raise FormatError(f"{path}: missing or unsupported schema tag")
    return doc


def _matrix_payload(m) -> dict:
    m = np.asarray(m, dtype=complex)
    return {"re": m.real.tolist(), "im": m.imag.tolist()}


def _numbers(value, shape, what, kinds="iuf") -> np.ndarray:
    """``value`` as an array of finite JSON numbers of the given ``shape``.

    ``None`` in ``shape`` matches any nonzero length.  Strings, booleans,
    nulls, objects, ragged lists and integers past 64 bits are format
    errors; ``kinds="iu"`` admits integers only.
    """
    try:
        a = np.asarray(value)
        ok = (a.dtype.kind in kinds and a.ndim == len(shape)
              and all(n > 0 if m is None else n == m for n, m in zip(a.shape, shape))
              and np.isfinite(a).all())
        # numpy reads a boolean among numbers as 0 or 1
        flat = [value]
        for _ in range(a.ndim):
            flat = chain.from_iterable(flat)
        ok = ok and bool not in set(map(type, flat))
    except ValueError:  # ragged nesting
        ok = False
    if not ok:
        raise FormatError(f"{what} must be finite {'numbers' if 'f' in kinds else 'integers'}"
                          f" of shape {str(shape).replace('None', 'n')}")
    return a


def density_to_json(rho, path):
    rho = np.asarray(rho, dtype=complex)
    payload = {"dim": rho.shape[0]}
    payload.update(_matrix_payload(rho))
    write_json(payload, path)


def density_from_json(path) -> np.ndarray:
    doc = read_json(path)
    dim = doc.get("dim")
    if dim not in (2, 4):
        raise FormatError(f"{path}: density matrix must declare dim 2 or 4")
    rho = _numbers(doc.get("re"), (dim, dim), f"{path}: 're'").astype(complex)
    rho.imag = _numbers(doc.get("im"), (dim, dim), f"{path}: 'im'")
    return rho


# One ensemble item exactly as json.dump(indent=1) lays it out: w, re, im.
_KRAUS_ITEM = (
    '  {\n   "w": %r,\n'
    '   "re": [\n    [\n     %r,\n     %r\n    ],\n    [\n     %r,\n     %r\n    ]\n   ],\n'
    '   "im": [\n    [\n     %r,\n     %r\n    ],\n    [\n     %r,\n     %r\n    ]\n   ]\n  }'
)


def kraus_to_json(ch: KrausEnsemble, path):
    """Write the ensemble in blocks of 1024 items; the bytes equal write_json's output.

    Each block is formatted by one ``%`` over its floats and written at once,
    so no list or string of every item is built.
    """
    rows = np.column_stack([ch.weights, ch.jones.real.reshape(-1, 4),
                            ch.jones.imag.reshape(-1, 4)])
    with open(path, "w") as fh:
        fh.write(f'{{\n "schema": "{SCHEMA}",\n "items": [\n')
        sep = ""
        for start in range(0, len(rows), 1024):
            block = rows[start:start + 1024]
            fmt = ",\n".join([_KRAUS_ITEM] * len(block))
            fh.write(sep + fmt % tuple(block.ravel().tolist()))
            sep = ",\n"
        fh.write("\n ]\n}\n")


def kraus_from_json(path) -> KrausEnsemble:
    """Read an ensemble written by ``kraus_to_json`` (or any ``qpol2/v1`` layout
    of the same items).

    The cyclic garbage collector is paused from the parse until the parsed
    document is freed.  The parse makes one dict and six lists per item, and
    with the collector on, a 10 000-item read ran about 99 collections over
    these containers that freed nothing: a JSON document holds no cycles.
    Turning the collector on again before the document is freed would start
    one more collection over all of them.  The pause is process-wide, which
    suits the single-threaded library; a caller that turned the collector off
    finds it off afterwards.
    """
    gc_was_on = gc.isenabled()
    gc.disable()
    try:
        weights, jones = _kraus_arrays(path)
    finally:
        if gc_was_on:
            gc.enable()
    return KrausEnsemble(weights, jones)


def _kraus_arrays(path):
    """Weights and Jones matrices of a Kraus JSON; the document dies on return."""
    doc = read_json(path)
    try:
        w, re, im = ([item[key] for item in doc["items"]] for key in ("w", "re", "im"))
    except (KeyError, TypeError) as exc:
        raise FormatError(f"{path}: ensemble needs an 'items' list of "
                          f"objects with 'w', 're' and 'im' ({exc!r})") from exc
    weights = _numbers(w, (None,), f"{path}: ensemble weights")
    jones = _numbers(re, (len(weights), 2, 2), f"{path}: Jones 're'").astype(complex)
    jones.imag = _numbers(im, jones.shape, f"{path}: Jones 'im'")
    return weights, jones


def write_matrix_csv(m, path):
    """Write a 2-D float array (a 1-D one as a column) as CSV at 17
    significant digits, in one format and one write call; the bytes equal
    numpy's savetxt with fmt="%.17g" and delimiter=","."""
    m = np.asarray(m, dtype=float)
    if m.ndim not in (1, 2):
        raise ValueError(f"Expected 1D or 2D array, got {m.ndim}D array instead")
    height, width = m.shape if m.ndim == 2 else (m.size, 1)
    row = ",".join(["%.17g"] * width) + "\n"
    with open(path, "w") as fh:
        fh.write(row * height % tuple(m.ravel().tolist()))


def read_matrix_csv(path) -> np.ndarray:
    try:
        with warnings.catch_warnings():
            # loadtxt warns on a file without data; it is malformed like any other.
            warnings.simplefilter("error", UserWarning)
            m = np.loadtxt(path, delimiter=",", dtype=float)
    except (ValueError, UserWarning) as exc:
        raise FormatError(f"{path}: not a numeric CSV matrix ({exc})") from exc
    return _numbers(m, (4, 4), f"{path}: matrix")


def write_counts_csv(records, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["setting_a", "setting_b", "pairs", "counts"])
        for rec in records:
            writer.writerow([rec.setting_a, rec.setting_b, rec.pairs, rec.counts])


def read_counts_csv(path):
    try:
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            header, rows = reader.fieldnames, list(reader)
    except (UnicodeDecodeError, csv.Error) as exc:  # csv.Error: a field past csv's size limit
        raise FormatError(f"{path}: not a counts CSV ({exc})") from exc
    if header != ["setting_a", "setting_b", "pairs", "counts"]:
        raise FormatError(f"{path}: unexpected counts header {header}")
    records = []
    for row in rows:
        tokens = row["pairs"], row["counts"]
        try:
            if not all(t.isascii() and t.isdigit() for t in tokens):
                raise ValueError(f"not plain decimal integers: {tokens}")
            pairs, counts = map(int, tokens)
        except (AttributeError, ValueError) as exc:  # AttributeError: a short row
            raise FormatError(f"{path}: malformed counts row ({exc})") from exc
        if pairs < 1:
            raise FormatError(f"{path}: pairs must be at least 1, got {pairs}")
        records.append(
            CountRecord(row["setting_a"], row["setting_b"], counts / pairs, counts, pairs)
        )
    return records


def write_grid(tensors, path):
    tensors = np.asarray(tensors, dtype=float)
    if tensors.ndim != 4 or tensors.shape[2:] != (4, 4):
        raise ValueError("grid must have shape (H, W, 4, 4)")
    height, width = tensors.shape[:2]
    with open(path, "wb") as fh:
        fh.write(struct.pack("<II", width, height))
        fh.write(tensors.astype("<f8").tobytes())


def read_grid(path) -> np.ndarray:
    with open(path, "rb") as fh:
        header = fh.read(8)
        if len(header) != 8:
            raise FormatError(f"{path}: truncated grid header")
        width, height = struct.unpack("<II", header)
        body = fh.read()
    expected = width * height * 16 * 8
    if len(body) != expected:
        raise FormatError(
            f"{path}: grid body has {len(body)} bytes, expected {expected}"
        )
    data = np.frombuffer(body, dtype="<f8").reshape(height, width, 4, 4)
    return data.astype(float)


def write_pixel_map(pixel_map, out_dir):
    """Write one CSV plane per fitted parameter, a residual plane, and a summary.

    Returns the summary dict written to ``summary.json``, without its schema tag.
    """
    os.makedirs(out_dir, exist_ok=True)
    names = ["m"] if pixel_map.model == "isotropic" else ["m11", "m22", "m33"]
    for idx, name in enumerate(names):
        write_matrix_csv(pixel_map.plane(idx), os.path.join(out_dir, f"{name}.csv"))
    write_matrix_csv(pixel_map.residuals, os.path.join(out_dir, "residual.csv"))
    finite = pixel_map.residuals[np.isfinite(pixel_map.residuals)]
    summary = {
        "model": pixel_map.model,
        "width": pixel_map.width,
        "height": pixel_map.height,
        "max_residual": float(finite.max()) if finite.size else None,
        "mean_residual": float(finite.mean()) if finite.size else None,
        "n_failed": int((~pixel_map.converged).sum()),
    }
    write_json(summary, os.path.join(out_dir, "summary.json"))
    return summary


def read_mc_config(path) -> dict:
    """Read a Monte Carlo run config; requires either "d" or "eta_grid".

    Real fields come back as floats ("eta_grid" a nonempty list of them),
    "n_photons" (at least 1) and "seed" (below 2**64) as exact ints.
    """
    doc = read_json(path)
    for key in ("mu_s", "g", "n_photons", "seed"):
        if key not in doc:
            raise FormatError(f"{path}: config lacks required key '{key}'")
    if ("d" in doc) == ("eta_grid" in doc):
        raise FormatError(f"{path}: config needs exactly one of 'd' or 'eta_grid'")
    for key in ("mu_s", "g", "d", "acceptance_deg", "eta_grid"):
        if key in doc:
            shape = (None,) if key == "eta_grid" else ()
            doc[key] = _numbers(doc[key], shape, f"{path}: '{key}'").astype(float).tolist()
    for key, low in (("n_photons", 1), ("seed", 0)):
        doc[key] = _numbers(doc[key], (), f"{path}: '{key}'", kinds="iu").tolist()
        if doc[key] < low:
            raise FormatError(f"{path}: '{key}' must be at least {low}")
    return doc


def load_tensor(path) -> np.ndarray:
    """Load a correlation tensor from a tensor CSV or a density-matrix JSON."""
    if str(path).endswith(".json"):
        return correlation_tensor(density_from_json(path))
    return read_matrix_csv(path)
