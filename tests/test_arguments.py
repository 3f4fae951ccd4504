"""The argument contract of every public entry that takes a Stokes vector, a
Mueller matrix or a correlation tensor.

Stokes vectors are finite (4,) arrays; Mueller matrices and correlation
tensors are finite (4, 4) arrays.  Anything else is a ValueError, never an
IndexError, a LinAlgError, a warning or a NaN result (``mueller_maps_physical``
answers False instead; see tests/test_channels.py).  A new public function
that takes such an argument gets one row in ``ENTRIES``.
"""

import numpy as np
import pytest

from qpol2 import (
    degree_of_polarization,
    fit_diagonal,
    fit_general,
    mueller_similarity,
    normalize_mueller,
    normalize_stokes,
    propagate_tensor,
    reconstruct_image,
    stabilizer_dimension,
    stokes_to_density,
    tensor_purity,
    tensor_to_density,
)
from conftest import K_BELL

STOKES, MATRIX = (4,), (4, 4)
# A product input, so that a general fit of two valid pairs is identifiable.
K_PRODUCT = np.outer([1.0, 1.0, 0.0, 0.0], [1.0, 0.0, 1.0, 0.0])

#: (name, call with the argument under test, its shape).  The other
#: arguments are valid: the Bell or a product tensor, or the identity as a
#: Mueller matrix.
ENTRIES = [
    ("degree_of_polarization", degree_of_polarization, STOKES),
    ("normalize_stokes", normalize_stokes, STOKES),
    ("stokes_to_density", stokes_to_density, STOKES),
    ("normalize_mueller", normalize_mueller, MATRIX),
    ("propagate_tensor m", lambda x: propagate_tensor(x, K_BELL), MATRIX),
    ("propagate_tensor k_in", lambda x: propagate_tensor(np.eye(4), x), MATRIX),
    ("mueller_similarity m_a", lambda x: mueller_similarity(x, np.eye(4)), MATRIX),
    ("mueller_similarity m_b", lambda x: mueller_similarity(np.eye(4), x), MATRIX),
    ("tensor_to_density", tensor_to_density, MATRIX),
    ("tensor_purity", tensor_purity, MATRIX),
    ("stabilizer_dimension", lambda x: stabilizer_dimension([K_BELL, x]), MATRIX),
    ("fit_diagonal k_in", lambda x: fit_diagonal(x, K_BELL), MATRIX),
    ("fit_diagonal k_out", lambda x: fit_diagonal(K_BELL, x), MATRIX),
    ("fit_general k_in",
     lambda x: fit_general([(K_BELL, K_BELL), (x, K_PRODUCT)]), MATRIX),
    ("fit_general k_out",
     lambda x: fit_general([(K_BELL, K_BELL), (K_PRODUCT, x)]), MATRIX),
    ("reconstruct_image k_in",
     lambda x: reconstruct_image(x, K_BELL[None, None]), MATRIX),
]
IDS = [name for name, _, _ in ENTRIES]


def _valid(shape):
    return np.array([1.0, 0.5, 0.0, 0.0]) if shape == STOKES else K_BELL.copy()


def _malformed(shape):
    """(label, argument) pairs that each break the contract for ``shape``."""
    shapes = [(), (3,), (3, 3), (1, 4, 4)] + ([MATRIX] if shape == STOKES else [])
    cases = [(f"shape {s}", np.full(s, 0.25) if s else 1.0) for s in shapes]
    # Entry 0 holds S0, M00 or K00, whose unit checks NaN fails silently.
    for index in [(0,) * len(shape), (1,) * len(shape), (-1,) * len(shape)]:
        for value in (np.nan, np.inf, -np.inf):
            x = _valid(shape)
            x[index] = value
            cases.append((f"{value} at {index}", x))
    return cases


@pytest.mark.parametrize("call, shape", [entry[1:] for entry in ENTRIES], ids=IDS)
def test_malformed_argument_is_a_value_error(call, shape):
    call(_valid(shape))  # the table's other arguments are valid
    for label, x in _malformed(shape):
        with pytest.raises(ValueError, match=r"must be finite with shape \(4,") as info:
            call(x)
        assert type(info.value) is ValueError, label  # not a LinAlgError
