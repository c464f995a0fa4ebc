"""Round-trip and validation tests for the CSV/checkpoint serialization."""

import json
import os

import numpy as np
import pytest

from polarlab.factorization import BMFactors, PolarFactors, SymFactors
from polarlab.io import (
    STATE_CLASSES,
    load_matrix_csv,
    load_state,
    save_checkpoint,
    save_matrix_csv,
    save_state,
)
from polarlab.landing import AdapterState, LoraState

from oracles import matrix_csv_reference


# ---------------------------------------------------------------------------
# matrix CSV


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("shape", [(1, 1), (3, 5), (7, 2), (4, 0), (0, 4)])
def test_matrix_roundtrip_is_exact(tmp_path, seed, shape):
    W = np.random.default_rng(seed).standard_normal(shape)
    path = tmp_path / "w.csv"
    save_matrix_csv(path, W)
    back = load_matrix_csv(path)
    # repr-formatted floats reproduce the exact float64 values
    assert np.array_equal(back, W)


def test_matrix_roundtrip_extreme_values(tmp_path):
    W = np.array([[1e-300, -1e300], [np.pi, -0.0]])
    path = tmp_path / "w.csv"
    save_matrix_csv(path, W)
    assert np.array_equal(load_matrix_csv(path), W)


def test_matrix_write_is_byte_identical(tmp_path):
    W = np.random.default_rng(3).standard_normal((4, 4))
    save_matrix_csv(tmp_path / "a.csv", W)
    save_matrix_csv(tmp_path / "b.csv", W)
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


_AWKWARD = np.array(
    [
        [-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300],
        [1e-300, -1e-300, 3.0, -17.0, 2.0**60, np.pi],
        [np.nan, 1.0, -1.0, 0.1, 1.0 / 3.0, -np.pi],
    ]
)


@pytest.mark.parametrize(
    "W",
    [
        _AWKWARD,
        np.asfortranarray(_AWKWARD),
        np.tile(_AWKWARD, (2, 2))[::2, ::2],  # non-contiguous
        _AWKWARD.T,
        np.array([[np.float32(np.pi), np.float32(-0.0), np.float32(1e-30)]], dtype=np.float32),
    ],
    ids=["c-order", "fortran", "strided", "transposed", "float32"],
)
def test_matrix_write_has_the_entrywise_reference_bytes(tmp_path, W):
    save_matrix_csv(tmp_path / "w.csv", W)
    assert (tmp_path / "w.csv").read_bytes() == matrix_csv_reference(W)


def test_matrix_header_layout(tmp_path):
    save_matrix_csv(tmp_path / "w.csv", np.zeros((2, 3)))
    lines = (tmp_path / "w.csv").read_text().splitlines()
    assert lines[0] == "rows,cols"
    assert lines[1] == "2,3"
    assert len(lines) == 4


def test_matrix_rejects_non_2d():
    with pytest.raises(ValueError):
        save_matrix_csv("unused.csv", np.zeros(3))


def test_load_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("cols,rows\n2,2\n1.0,2.0\n3.0,4.0\n")
    with pytest.raises(ValueError, match="header"):
        load_matrix_csv(path)


def test_load_rejects_shape_mismatch(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("rows,cols\n3,2\n1.0,2.0\n3.0,4.0\n")
    with pytest.raises(ValueError, match="shape"):
        load_matrix_csv(path)


@pytest.mark.parametrize("dims", ["5", "5,x", "5,2,1", ""])
def test_load_rejects_a_malformed_dimension_line(tmp_path, dims):
    path = tmp_path / "bad.csv"
    path.write_text(f"rows,cols\n{dims}\n1.0,2.0\n")
    with pytest.raises(ValueError) as info:
        load_matrix_csv(path)
    assert str(info.value) == f"{path}: expected two integer dimensions on line 2, got {dims!r}"


@pytest.mark.parametrize(
    "row, message",
    [
        ("abc,4.0", "could not convert string to float: 'abc'"),
        ("3.0,", "could not convert string to float: ''"),
        ("3.0", "1 cells, the dimensions line has 2"),
        ("3.0,4.0,5.0", "3 cells, the dimensions line has 2"),
    ],
)
def test_load_names_the_file_and_line_of_a_bad_row(tmp_path, row, message):
    path = tmp_path / "bad.csv"
    path.write_text(f"rows,cols\n3,2\n1.0,2.0\n{row}\n5.0,6.0\n")
    with pytest.raises(ValueError) as info:
        load_matrix_csv(path)
    assert str(info.value) == f"{path}:4: {message}"


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    matrices = {"X": rng.standard_normal((5, 2)), "Theta": rng.standard_normal((2, 2))}
    meta = {"kind": "polar-adapter", "r": 2, "eta": 1e-3}
    save_checkpoint(tmp_path / "ckpt", matrices, meta)
    assert sorted(os.listdir(tmp_path / "ckpt")) == ["Theta.csv", "X.csv", "meta.json"]
    assert json.loads((tmp_path / "ckpt" / "meta.json").read_text()) == meta
    for name in matrices:
        assert np.array_equal(load_matrix_csv(tmp_path / "ckpt" / f"{name}.csv"), matrices[name])


def test_checkpoint_meta_is_sorted_json(tmp_path):
    save_checkpoint(tmp_path / "ckpt", {}, {"b": 1, "a": 2})
    text = (tmp_path / "ckpt" / "meta.json").read_text()
    assert text.index('"a"') < text.index('"b"')
    assert json.loads(text) == {"a": 2, "b": 1}


# ---------------------------------------------------------------------------
# state checkpoints


def _states():
    """One state of every checkpoint kind, with generic (off-manifold) factors."""
    g = np.random.default_rng(7).standard_normal
    m, n, r = 6, 5, 3
    return {
        "polar-factors": PolarFactors(X=g((m, r)), Theta=g((r, r)), Y=g((n, r))),
        "bm-factors": BMFactors(Z1=g((m, r)), Z2=g((n, r))),
        "sym-factors": SymFactors(X=g((m, r)), Theta=g((r, r))),
        "polar-adapter": AdapterState(X=g((m, r)), Theta=g((r, r)), Y=g((n, r))),
        "lora": LoraState(Z1=g((m, r)), Z2=g((n, r))),
    }


def test_every_state_class_has_a_kind():
    assert sorted(cls.kind for cls in STATE_CLASSES) == sorted(_states())


@pytest.mark.parametrize("kind", sorted(_states()))
def test_state_roundtrip(tmp_path, kind):
    state = _states()[kind]
    assert state.kind == kind
    save_state(tmp_path / "ckpt", state, {"note": "test", "seed": 3})
    back, meta = load_state(tmp_path / "ckpt")
    assert type(back) is type(state)
    assert meta["kind"] == kind and meta["note"] == "test" and meta["seed"] == 3
    for name, value in vars(state).items():
        assert np.array_equal(getattr(back, name), value), name
        assert (tmp_path / "ckpt" / f"{name}.csv").is_file()
    assert np.array_equal(back.delta_w(), state.delta_w())
    assert len(state.factors) == 2 and all(hasattr(state, name) for name in state.factors)


def test_save_state_keeps_its_own_kind(tmp_path):
    state = _states()["lora"]
    save_state(tmp_path / "ckpt", state, {"kind": "mystery"})
    back, meta = load_state(tmp_path / "ckpt")
    assert meta["kind"] == "lora"
    assert np.array_equal(back.delta_w(), state.delta_w())


def test_load_state_reads_only_its_own_files(tmp_path):
    state = _states()["polar-factors"]
    save_state(tmp_path / "ckpt", state, {})
    (tmp_path / "ckpt" / "notes.csv").write_text("a free-form note, not a matrix\n")
    back, _ = load_state(tmp_path / "ckpt")
    assert np.array_equal(back.delta_w(), state.delta_w())
    # an adapter checkpoint written while the state still held the base weight has a W0.csv too
    adapter = _states()["polar-adapter"]
    save_state(tmp_path / "old", adapter, {})
    save_matrix_csv(tmp_path / "old" / "W0.csv", np.random.default_rng(8).standard_normal((6, 5)))
    back, _ = load_state(tmp_path / "old")
    assert type(back) is AdapterState and not hasattr(back, "W0")
    assert np.array_equal(back.delta_w(), adapter.delta_w())


def test_load_state_requires_meta(tmp_path):
    (tmp_path / "notckpt").mkdir()
    with pytest.raises(FileNotFoundError, match="meta.json"):
        load_state(tmp_path / "notckpt")


@pytest.mark.parametrize("kind", ["polar-adapter", "lora"])
def test_load_state_rejects_an_adapter_at_another_scale(tmp_path, kind):
    # an older adapter meta.json records the scale_alpha of its run: the fixed 32.0 loads, and
    # another value would read its DeltaW at the wrong scale
    state = _states()[kind]
    save_state(tmp_path / "ckpt", state, {"scale_alpha": 32.0})
    back, meta = load_state(tmp_path / "ckpt")
    assert meta["scale_alpha"] == 32.0 and np.array_equal(back.delta_w(), state.delta_w())
    save_state(tmp_path / "ckpt", state, {"scale_alpha": 16.0})
    with pytest.raises(ValueError) as info:
        load_state(tmp_path / "ckpt")
    assert str(info.value) == f"{tmp_path / 'ckpt'}: meta.json of a {kind!r} checkpoint has scale_alpha 16.0, not the fixed 32.0"


@pytest.mark.parametrize("meta", [{"kind": "mystery"}, {"note": "no kind at all"}])
def test_load_state_rejects_unknown_kind(tmp_path, meta):
    save_checkpoint(tmp_path / "ckpt", {"X": np.eye(2)}, meta)
    with pytest.raises(ValueError, match="unknown checkpoint kind"):
        load_state(tmp_path / "ckpt")


@pytest.mark.parametrize("text", ["[]", '"lora"', '{"kind": ["lora"]}', '{"kind": 3}', '{"kind": null}'])
def test_load_state_rejects_a_meta_json_that_is_not_an_object_with_a_string_kind(tmp_path, text):
    save_state(tmp_path / "ckpt", _states()["lora"], {})
    (tmp_path / "ckpt" / "meta.json").write_text(text + "\n")
    with pytest.raises(ValueError) as info:
        load_state(tmp_path / "ckpt")
    assert str(info.value) == f"{tmp_path / 'ckpt'}: meta.json must hold a JSON object whose 'kind' is a string"


# kind -> (field, shape): a field whose shape does not fit the r = 3 columns of the first factor
_MISFIT = {
    "polar-factors": ("Theta", (2, 2)),
    "bm-factors": ("Z2", (5, 2)),
    "sym-factors": ("Theta", (4, 3)),
    "polar-adapter": ("Y", (5, 4)),
    "lora": ("Z2", (5, 4)),
}


@pytest.mark.parametrize("kind", sorted(_MISFIT))
def test_load_state_names_a_field_whose_shape_does_not_fit(tmp_path, kind):
    field, shape = _MISFIT[kind]
    state = _states()[kind]
    save_state(tmp_path / "ckpt", state, {})
    save_matrix_csv(tmp_path / "ckpt" / f"{field}.csv", np.ones(shape))
    with pytest.raises(ValueError) as info:
        load_state(tmp_path / "ckpt")
    assert str(info.value) == f"{tmp_path / 'ckpt' / field}.csv: shape {shape} does not fit r = 3 of {state.factors[0]}.csv"
