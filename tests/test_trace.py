"""RunTrace validation and trace CSV/JSON serialization tests."""

import json
import math

import numpy as np
import pytest

from polarlab.trace import (
    CORE_COLUMNS,
    RunTrace,
    read_trace_csv,
    trace_basename,
    write_table,
    write_trace,
)


def _trace(**metadata):
    md = {"seed": 0, "eta": 1e-3, "m": 4, "n": 4, "r": 2, "r_A": 1, "kappa": 10.0}
    md.update(metadata)
    return RunTrace(algorithm="polar-rgd", metadata=md)


# ---------------------------------------------------------------------------
# append validation


def test_append_and_columns():
    tr = _trace()
    assert list(tr.columns) == list(CORE_COLUMNS)
    tr.append(0, 1.0, trace_phi=0.5, grad_norm=2.0)
    tr.append(10, 0.5, trace_phi=0.7, grad_norm=1.0)
    assert len(tr) == 2
    assert tr.final_loss == 0.5
    assert tr.columns["iter"] == [0, 10]
    assert tr.columns["loss"] == [1.0, 0.5]
    assert tr.columns["trace_phi"] == [0.5, 0.7]
    assert math.isnan(tr.columns["trace_psi"][0])


def test_append_rejects_non_increasing_iter():
    tr = _trace()
    tr.append(5, 1.0)
    with pytest.raises(ValueError, match="increasing"):
        tr.append(5, 0.9)
    with pytest.raises(ValueError, match="increasing"):
        tr.append(3, 0.9)


def test_append_rejects_negative_loss():
    tr = _trace()
    with pytest.raises(ValueError, match="nonnegative"):
        tr.append(0, -1e-12)


def test_append_rejects_nan_loss():
    tr = _trace()
    with pytest.raises(ValueError, match="nonnegative"):
        tr.append(0, float("nan"))


def test_append_rejects_a_changed_set_of_added_columns():
    tr = _trace()
    tr.append(0, 1.0, n_x=0.1)
    with pytest.raises(ValueError, match=r"added columns changed: \['n_y'\] vs \['n_x'\]"):
        tr.append(1, 0.9, n_y=0.1)
    with pytest.raises(ValueError, match="added columns changed"):
        tr.append(1, 0.9)
    with pytest.raises(ValueError, match="added columns changed"):
        tr.append(1, 0.9, n_x=0.1, n_y=0.1)
    assert len(tr) == 1 and all(len(column) == 1 for column in tr.columns.values())


def test_added_columns_follow_the_core_columns_sorted():
    tr = _trace()
    tr.append(0, 1.0, n_y=0.25, n_x=0.5, grad_norm=3.0)
    tr.append(1, 0.5, n_x=0.4, n_y=0.2)
    assert list(tr.columns) == [*CORE_COLUMNS, "n_x", "n_y"]
    assert tr.columns["n_x"] == [0.5, 0.4]
    assert tr.columns["n_y"] == [0.25, 0.2]
    assert tr.columns["grad_norm"][0] == 3.0 and math.isnan(tr.columns["grad_norm"][1])


# ---------------------------------------------------------------------------
# file stem


def test_trace_basename_integerizes_float_kappa():
    assert trace_basename(_trace(kappa=10.0, r=20, seed=3)) == "polar-rgd_10_20_3"


def test_trace_basename_keeps_a_huge_integral_kappa_short():
    # int(1e300) has 301 digits, too long for a file name
    assert trace_basename(_trace(kappa=1e300)) == "polar-rgd_1e+300_2_0"
    assert trace_basename(_trace(kappa=1e15)) == "polar-rgd_1000000000000000_2_0"
    assert trace_basename(_trace(kappa=1e16)) == "polar-rgd_1e+16_2_0"


def test_trace_basename_keeps_fractional_kappa():
    assert trace_basename(_trace(kappa=2.5)) == "polar-rgd_2.5_2_0"


def test_trace_basename_handles_nan_kappa():
    assert trace_basename(_trace(kappa=float("nan"))) == "polar-rgd_na_2_0"


def test_trace_basename_handles_missing_keys():
    tr = RunTrace(algorithm="lora", metadata={})
    assert trace_basename(tr) == "lora_na_na_na"


# ---------------------------------------------------------------------------
# serialization


def _filled_trace(include_extras=False):
    tr = _trace()
    rng = np.random.default_rng(0)
    for i in range(5):
        extras = {"n_x": float(rng.uniform())} if include_extras else {}
        tr.append(
            i * 10,
            float(rng.uniform() + 0.1),
            trace_phi=float(rng.uniform()),
            trace_psi=float(rng.uniform()),
            sigma_min_phi=float(rng.uniform()),
            sigma_min_psi=float(rng.uniform()),
            grad_norm=float(rng.uniform()),
            **extras,
        )
    return tr


def test_write_table_writes_the_first_cell_by_str_and_the_rest_by_repr(tmp_path):
    path = tmp_path / "table.csv"
    write_table(path, {"label": ["seed0", "seed1"], "x": [0.1, 1e-300], "y": [math.nan, 2.0]})
    assert path.read_text() == "label,x,y\nseed0,0.1,nan\nseed1,1e-300,2.0\n"
    write_table(path, {"iter": [], "loss": []})
    assert path.read_text() == "iter,loss\n"


def test_write_trace_roundtrip(tmp_path):
    # NaN-free, so equality of the tables is exact; with an added column
    tr = _filled_trace(include_extras=True)
    assert read_trace_csv(write_trace(tr, tmp_path)) == tr.columns


@pytest.mark.parametrize("cells", [4, 9])
def test_read_trace_csv_rejects_a_row_of_another_width(tmp_path, cells):
    # a short or long row would leave the columns of unequal length
    csv_path = write_trace(_filled_trace(include_extras=True), tmp_path)
    with open(csv_path) as fh:
        lines = fh.read().splitlines()
    lines[-1] = ",".join((lines[-1].split(",") * 2)[:cells])
    with open(csv_path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    with pytest.raises(ValueError) as info:
        read_trace_csv(csv_path)
    assert str(info.value) == f"{csv_path}:6: {cells} cells, the header has 8"


def test_write_trace_header_excludes_wall_time_by_default(tmp_path):
    csv_path = write_trace(_filled_trace(), tmp_path)
    header = open(csv_path).readline().strip().split(",")
    assert header == list(CORE_COLUMNS)


def test_write_trace_extras_sorted_after_core(tmp_path):
    tr = _filled_trace(include_extras=True)
    csv_path = write_trace(tr, tmp_path)
    header = open(csv_path).readline().strip().split(",")
    assert header == list(CORE_COLUMNS) + ["n_x"]
    assert read_trace_csv(csv_path)["n_x"] == tr.columns["n_x"]


def test_write_trace_is_byte_identical_for_same_data(tmp_path):
    tr = _filled_trace()
    a = write_trace(tr, tmp_path / "a")
    b = write_trace(tr, tmp_path / "b")
    assert open(a, "rb").read() == open(b, "rb").read()


def test_json_sidecar_fields(tmp_path):
    tr = _filled_trace()
    tr.wall_time = 0.4
    csv_path = write_trace(tr, tmp_path)
    meta = json.load(open(csv_path[:-4] + ".json"))
    assert meta["algorithm"] == "polar-rgd"
    assert meta["n_records"] == 5
    assert meta["seed"] == 0
    assert meta["total_wall_time"] == 0.4
    assert "polarlab_version" in meta
    assert "total_wall_time" not in tr.metadata
