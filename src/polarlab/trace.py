"""Per-iteration run traces and their CSV/JSON serialization.

A trace is one table, ``RunTrace.columns``: column name -> per-row values.
Its CSV, written by :func:`write_table` and read back in the same shape by
:func:`read_trace_csv`, is the header, then one line per row. The
``CORE_COLUMNS`` come first, with NaN where a method gives none; the columns
a method adds (the landing trainers add n_x, n_y and stable_rank) follow,
sorted. The first cell of a line is written by ``str``, the rest by ``repr``,
so identical config + seed reproduces the CSV byte for byte in
single-threaded runs. The run's wall clock goes only in the JSON sidecar, as
``total_wall_time``, the one field outside this determinism contract.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

from . import __version__

CORE_COLUMNS = (
    "iter",
    "loss",
    "trace_phi",
    "trace_psi",
    "sigma_min_phi",
    "sigma_min_psi",
    "grad_norm",
)
_CORE = frozenset(CORE_COLUMNS)
_NAN_ROW = dict.fromkeys(CORE_COLUMNS, math.nan)


@dataclass
class RunTrace:
    """Recorded rows of one optimization run.

    ``algorithm`` names the method. ``metadata`` carries at least seed, eta,
    m, n, r, r_A and kappa. ``columns`` is the table, column name ->
    per-row values, in CSV order. ``wall_time`` is the run's wall clock in
    seconds, set by :func:`polarlab.runner.run`.
    """

    algorithm: str
    metadata: dict
    columns: dict = field(default_factory=lambda: {name: [] for name in CORE_COLUMNS})
    wall_time: float | None = None

    def append(self, it: int, loss: float, **values) -> None:
        """Record one row: ``values`` gives core columns besides iter and loss,
        and the added columns, which must be the first row's."""
        columns = self.columns
        iters = columns["iter"]
        if iters and it <= iters[-1]:
            raise ValueError(f"iterations must be strictly increasing, got {it} after {iters[-1]}")
        if not loss >= 0.0:
            raise ValueError(f"loss must be nonnegative, got {loss}")
        row = {**_NAN_ROW, **values}
        if not iters:
            columns.update((name, []) for name in sorted(row.keys() - _CORE))
        elif row.keys() != columns.keys():
            raise ValueError(f"added columns changed: {sorted(row.keys() - _CORE)} vs {sorted(columns.keys() - _CORE)}")
        row["loss"] = loss
        iters.append(int(it))
        for name, column in columns.items():
            if column is not iters:
                column.append(float(row[name]))

    def __len__(self) -> int:
        return len(self.columns["iter"])

    @property
    def final_loss(self) -> float:
        return self.columns["loss"][-1]


def trace_basename(trace: RunTrace) -> str:
    """Canonical file stem ``<algo>_<kappa>_<r>_<seed>``. An integral kappa of at most
    16 digits is written as an int (10.0 as 10), a larger one by repr (1e+300)."""
    md = trace.metadata
    kappa = md.get("kappa", "na")
    if isinstance(kappa, float):
        if not math.isfinite(kappa):
            kappa = "na"
        elif kappa == int(kappa) and abs(kappa) < 1e16:
            kappa = int(kappa)
    return f"{trace.algorithm}_{kappa}_{md.get('r', 'na')}_{md.get('seed', 'na')}"


def write_table(path, columns: dict) -> None:
    """Write ``columns`` (name -> per-row values) as CSV: the header, then
    each row with its first cell by ``str`` and the rest by ``repr``."""
    first, *rest = columns.values()
    cells = [map(str, first), *(map(repr, column) for column in rest)]
    lines = [",".join(columns), *map(",".join, zip(*cells, strict=True))]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_trace(trace: RunTrace, out_dir) -> str:
    """Write ``<stem>.csv`` and ``<stem>.json`` into ``out_dir``, the stem by
    :func:`trace_basename`. Returns the CSV path.
    """
    os.makedirs(out_dir, exist_ok=True)
    stem = trace_basename(trace)
    csv_path = os.path.join(out_dir, f"{stem}.csv")
    write_table(csv_path, trace.columns)

    meta = dict(trace.metadata)
    meta["algorithm"] = trace.algorithm
    meta["polarlab_version"] = __version__
    meta["n_records"] = len(trace)
    meta["total_wall_time"] = trace.wall_time
    with open(os.path.join(out_dir, f"{stem}.json"), "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")
    return csv_path


def read_trace_csv(path) -> dict:
    """Read a trace CSV into the shape of ``RunTrace.columns``: column name ->
    list, ints for iter and floats elsewhere. A ragged row, a cell that is not
    a number or an iter cell that is not a nonnegative integer raises
    ValueError naming the file and the line."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        columns = {name: [] for name in header}
        for lineno, line in enumerate(fh, start=2):
            parts = line.strip().split(",")
            if len(parts) != len(header):
                raise ValueError(f"{path}:{lineno}: {len(parts)} cells, the header has {len(header)}")
            try:
                for name, val in zip(header, parts):
                    value = float(val)
                    if name == "iter" and not (value >= 0 and value.is_integer()):
                        raise ValueError(f"iter {val!r} is not a nonnegative integer")
                    columns[name].append(int(value) if name == "iter" else value)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    return columns
