"""CSV serialization of matrices and checkpoints of optimizer states.

Matrix CSV layout (documented contract): a header line ``rows,cols``, a
second line with the two integer dimensions, then one CSV line per matrix
row in row-major order. Floats are written with ``repr`` so that reading
the file back reproduces the exact float64 values (a NaN of any sign or
payload reads back as the quiet NaN) and identical inputs produce
byte-identical files.

State checkpoint contract: a directory holding one matrix CSV per field of
the state, all of them arrays, named ``<field>.csv``, and a ``meta.json``
object with the state class's ``kind`` and the caller's metadata. The five
state classes are listed in ``STATE_CLASSES``; each declares its ``kind``,
its two ``factors`` and ``delta_w()``. The two adapter states extend
``PolarFactors`` and ``BMFactors``, hold no base weight and scale DeltaW
by the constant alpha of ``polarlab.landing``. Loading looks the kind up
there and reads only that class's files, so other files in the directory
are ignored, such as the ``W0.csv`` of an older adapter checkpoint. Every
field must have the r columns of the first factor, and Theta must be
square. An older adapter ``meta.json`` also records the ``scale_alpha``
its run used; one other than the constant is rejected, since its DeltaW
would be read at the wrong scale.
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
            cells = line.strip()  # a row of a matrix with no columns is an empty line
            try:
                row = [float(cell) for cell in cells.split(",")] if cells else []
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


def save_state(directory, state, meta: dict) -> None:
    """Write ``state`` as a checkpoint: its fields as matrix CSVs, and ``meta``
    and its kind in meta.json, where the kind wins over a ``kind`` in ``meta``."""
    arrays = {f.name: getattr(state, f.name) for f in dataclasses.fields(state)}
    save_checkpoint(directory, arrays, {**meta, "kind": state.kind})


def load_state(directory):
    """Read a checkpoint written by :func:`save_state` -> (state, meta)."""
    meta_path = os.path.join(directory, "meta.json")
    if not os.path.isfile(meta_path):
        raise FileNotFoundError(f"{directory} has no meta.json; not a checkpoint")
    with open(meta_path) as fh:
        meta = json.load(fh)
    if not isinstance(meta, dict) or not isinstance(meta.get("kind", ""), str):
        raise ValueError(f"{directory}: meta.json must hold a JSON object whose 'kind' is a string")
    cls = _BY_KIND.get(meta.get("kind"))
    if cls is None:
        raise ValueError(f"{directory}: unknown checkpoint kind {meta.get('kind')!r}")
    alpha = getattr(cls, "scale_alpha", None)
    if alpha is not None and meta.get("scale_alpha", alpha) != alpha:
        raise ValueError(f"{directory}: meta.json of a {cls.kind!r} checkpoint has scale_alpha "
                         f"{meta['scale_alpha']!r}, not the fixed {alpha}")
    values = {f.name: load_matrix_csv(os.path.join(directory, f"{f.name}.csv")) for f in dataclasses.fields(cls)}
    r = values[cls.factors[0]].shape[1]  # every field has r columns, and Theta is r x r
    for name, W in values.items():
        if W.shape[1] != r or (name == "Theta" and W.shape[0] != r):
            raise ValueError(f"{os.path.join(directory, name)}.csv: shape {W.shape} does not fit r = {r} of {cls.factors[0]}.csv")
    return cls(**values), meta
