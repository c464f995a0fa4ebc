"""CSV serialization of matrices and checkpoints of optimizer states.

Matrix CSV layout (documented contract): a header line ``rows,cols``, a
second line with the two integer dimensions, then one CSV line per matrix
row in row-major order. Floats are written with ``repr`` so that reading
the file back reproduces the exact float64 values and identical inputs
produce byte-identical files.

State checkpoint contract: a directory holding one matrix CSV per array
field of the state, named ``<field>.csv``, and a ``meta.json`` with the
state class's ``kind``, its scalar fields and the caller's metadata. The
five state classes are listed in ``STATE_CLASSES``; each declares its
``kind``, its two ``factors`` and ``delta_w()``. The two adapter states
extend ``PolarFactors`` and ``BMFactors`` and hold no base weight. Loading
looks the kind up there and reads only that class's files, so other files
in the directory are ignored, such as the ``W0.csv`` of an older adapter
checkpoint.
"""

from __future__ import annotations

import dataclasses
import json
import os

import numpy as np

from .factorization import BMFactors, PolarFactors, SymFactors
from .landing import AdapterState, LoraState

STATE_CLASSES = (PolarFactors, BMFactors, SymFactors, AdapterState, LoraState)
_BY_KIND = {cls.kind: cls for cls in STATE_CLASSES}


def save_matrix_csv(path, W) -> None:
    """Write a 2-D array in the documented matrix CSV layout."""
    W = np.asarray(W, dtype=np.float64)
    if W.ndim != 2:
        raise ValueError(f"expected a 2-D array, got shape {W.shape}")
    lines = ["rows,cols", "%d,%d" % W.shape]
    lines.extend(",".join(map(repr, row)) for row in W.tolist())
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_matrix_csv(path) -> np.ndarray:
    """Read a matrix written by :func:`save_matrix_csv`."""
    with open(path) as fh:
        header = fh.readline().strip()
        if header != "rows,cols":
            raise ValueError(f"{path}: expected 'rows,cols' header, got {header!r}")
        dims = fh.readline().strip()
        try:
            rows, cols = map(int, dims.split(","))
        except ValueError:
            raise ValueError(f"{path}: expected two integer dimensions on line 2, got {dims!r}") from None
        data = []
        for lineno, line in enumerate(fh, start=3):
            try:
                row = [float(cell) for cell in line.strip().split(",")]
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            if len(row) != cols:
                raise ValueError(f"{path}:{lineno}: {len(row)} cells, the dimensions line has {cols}")
            data.append(row)
    data = np.array(data).reshape(len(data), cols)
    if data.shape != (rows, cols):
        raise ValueError(f"{path}: declared shape ({rows},{cols}) != data shape {data.shape}")
    return data


def save_checkpoint(directory, matrices: dict, meta: dict) -> None:
    """Write named matrices (one CSV each) plus a meta.json into a directory."""
    os.makedirs(directory, exist_ok=True)
    for name, W in matrices.items():
        save_matrix_csv(os.path.join(directory, f"{name}.csv"), W)
    with open(os.path.join(directory, "meta.json"), "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _is_scalar(field) -> bool:
    return field.type in ("float", float)


def save_state(directory, state, meta: dict) -> None:
    """Write ``state`` as a checkpoint: its array fields as matrix CSVs, and
    ``meta``, its kind and its scalar fields in meta.json, where the state's
    own entries win over keys of the same name in ``meta``."""
    fields = dataclasses.fields(state)
    arrays = {f.name: getattr(state, f.name) for f in fields if not _is_scalar(f)}
    scalars = {f.name: getattr(state, f.name) for f in fields if _is_scalar(f)}
    save_checkpoint(directory, arrays, {**meta, "kind": state.kind, **scalars})


def load_state(directory):
    """Read a checkpoint written by :func:`save_state` -> (state, meta)."""
    meta_path = os.path.join(directory, "meta.json")
    if not os.path.isfile(meta_path):
        raise FileNotFoundError(f"{directory} has no meta.json; not a checkpoint")
    with open(meta_path) as fh:
        meta = json.load(fh)
    cls = _BY_KIND.get(meta.get("kind"))
    if cls is None:
        raise ValueError(f"{directory}: unknown checkpoint kind {meta.get('kind')!r}")
    missing = [f.name for f in dataclasses.fields(cls) if _is_scalar(f) and f.name not in meta]
    if missing:
        raise ValueError(f"{directory}: meta.json of a {cls.kind!r} checkpoint lacks {', '.join(missing)}")
    values = {f.name: load_matrix_csv(os.path.join(directory, f"{f.name}.csv"))
              for f in dataclasses.fields(cls) if not _is_scalar(f)}
    for f in filter(_is_scalar, dataclasses.fields(cls)):
        try:
            values[f.name] = float(meta[f.name])
        except (TypeError, ValueError):
            raise ValueError(f"{directory}: meta.json of a {cls.kind!r} checkpoint has a non-numeric {f.name}") from None
    return cls(**values), meta
