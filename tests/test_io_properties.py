"""Property tests of the CSV and checkpoint round trips: random shapes and float64 values,
signed zeros, subnormals, infinities and NaN included, must read back bit for bit.

A NaN is written as ``nan`` and reads back as the one quiet NaN, so NaN is drawn as that
value; the sign and payload of other NaNs are outside the matrix CSV contract."""

import dataclasses
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from polarlab.io import STATE_CLASSES, load_matrix_csv, load_state, save_matrix_csv, save_state  # noqa: E402

# every finite float64 (subnormals and both zeros among them), both infinities, and the quiet NaN
VALUES = st.floats(allow_nan=False, width=64) | st.just(math.nan)
PROPERTY = settings(max_examples=60, deadline=None, database=None)


def _matrix(rows, cols):
    return arrays(np.float64, (rows, cols), elements=VALUES)


def _bits(a) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


@PROPERTY
@given(st.tuples(st.integers(0, 6), st.integers(0, 6)).flatmap(lambda shape: _matrix(*shape)))
def test_matrix_csv_roundtrip_is_bit_exact(W):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "w.csv"
        save_matrix_csv(path, W)
        back = load_matrix_csv(path)
    assert back.dtype == np.float64 and back.shape == W.shape
    assert np.array_equal(_bits(back), _bits(W))


@st.composite
def _states(draw, cls):
    """A ``cls`` state of random m, n >= r >= 1 whose fields hold arbitrary float64 values."""
    r = draw(st.integers(1, 4))
    m, n = draw(st.integers(r, 7)), draw(st.integers(r, 7))
    rows = {"X": m, "Y": n, "Theta": r, "Z1": m, "Z2": n}
    return cls(**{f.name: draw(_matrix(rows[f.name], r)) for f in dataclasses.fields(cls)})


@pytest.mark.parametrize("cls", STATE_CLASSES, ids=lambda cls: cls.kind)
@PROPERTY
@given(data=st.data())
def test_state_roundtrip_is_bit_exact(cls, data):
    state = data.draw(_states(cls))
    with tempfile.TemporaryDirectory() as tmp:
        save_state(tmp, state, {"seed": 3})
        back, meta = load_state(tmp)
    assert type(back) is cls and meta == {"seed": 3, "kind": cls.kind}
    for name, value in vars(state).items():
        assert np.array_equal(_bits(getattr(back, name)), _bits(value)), name
