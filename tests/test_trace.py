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
    write_trace,
)


def _trace(**metadata):
    md = {"seed": 0, "eta": 1e-3, "gamma": 1.0, "m": 4, "n": 4, "r": 2, "r_A": 1, "kappa": 10.0}
    md.update(metadata)
    return RunTrace(algorithm="polar-rgd", metadata=md)


# ---------------------------------------------------------------------------
# append validation


def test_append_and_columns():
    tr = _trace()
    tr.append(0, 1.0, trace_phi=0.5, grad_norm=2.0)
    tr.append(10, 0.5, trace_phi=0.7, grad_norm=1.0)
    assert len(tr) == 2
    assert tr.final_loss == 0.5
    assert tr.column("iter") == [0, 10]
    assert tr.column("loss") == [1.0, 0.5]
    assert math.isnan(tr.column("trace_psi")[0])


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


def test_append_rejects_inconsistent_extras():
    tr = _trace()
    tr.append(0, 1.0, n_x=0.1)
    with pytest.raises(ValueError, match="extras"):
        tr.append(1, 0.9, n_y=0.1)
    with pytest.raises(ValueError, match="extras"):
        tr.append(1, 0.9)


def test_extras_become_columns():
    tr = _trace()
    tr.append(0, 1.0, n_x=0.5, n_y=0.25)
    tr.append(1, 0.5, n_x=0.4, n_y=0.2)
    assert tr.column("n_x") == [0.5, 0.4]
    assert tr.column("n_y") == [0.25, 0.2]


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
            wall_time=float(i) * 0.1,
            **extras,
        )
    return tr


def test_write_trace_roundtrip(tmp_path):
    tr = _filled_trace()
    csv_path = write_trace(tr, tmp_path)
    cols = read_trace_csv(csv_path)
    assert cols["iter"] == tr.iters
    for name in CORE_COLUMNS[1:]:
        assert cols[name] == getattr(tr, name)


def test_write_trace_header_excludes_wall_time_by_default(tmp_path):
    csv_path = write_trace(_filled_trace(), tmp_path)
    header = open(csv_path).readline().strip().split(",")
    assert header == list(CORE_COLUMNS)


def test_write_trace_custom_basename(tmp_path):
    csv_path = write_trace(_filled_trace(), tmp_path, basename="prof")
    assert csv_path == str(tmp_path / "prof.csv")
    assert (tmp_path / "prof.json").is_file()
    assert "wall_time" not in read_trace_csv(csv_path)


def test_write_trace_extras_sorted_after_core(tmp_path):
    tr = _filled_trace(include_extras=True)
    csv_path = write_trace(tr, tmp_path)
    header = open(csv_path).readline().strip().split(",")
    assert header == list(CORE_COLUMNS) + ["n_x"]
    assert read_trace_csv(csv_path)["n_x"] == tr.extras["n_x"]


def test_write_trace_is_byte_identical_for_same_data(tmp_path):
    tr = _filled_trace()
    a = write_trace(tr, tmp_path / "a")
    b = write_trace(tr, tmp_path / "b")
    assert open(a, "rb").read() == open(b, "rb").read()


def test_json_sidecar_fields(tmp_path):
    tr = _filled_trace()
    csv_path = write_trace(tr, tmp_path)
    meta = json.load(open(csv_path[:-4] + ".json"))
    assert meta["algorithm"] == "polar-rgd"
    assert meta["n_records"] == 5
    assert meta["seed"] == 0
    assert meta["total_wall_time"] == pytest.approx(0.4)
    assert "polarlab_version" in meta
