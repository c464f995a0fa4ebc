"""Per-iteration run traces and their CSV/JSON serialization.

A trace CSV holds only the deterministic per-iteration columns; identical
config + seed reproduces it byte for byte in single-threaded runs. The
per-iteration wall clock is kept in memory and summarized in the JSON
metadata sidecar (``total_wall_time``), the one field outside the
determinism contract; timings never go in the CSV.
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


@dataclass
class RunTrace:
    """Recorded iterates of one optimization run.

    ``metadata`` carries at least seed, eta, gamma, m, n, r, r_A, kappa and
    algorithm. ``extras`` holds additional per-iteration columns (the
    landing trainers add n_x, n_y and stable_rank).
    """

    algorithm: str
    metadata: dict
    iters: list = field(default_factory=list)
    loss: list = field(default_factory=list)
    trace_phi: list = field(default_factory=list)
    trace_psi: list = field(default_factory=list)
    sigma_min_phi: list = field(default_factory=list)
    sigma_min_psi: list = field(default_factory=list)
    grad_norm: list = field(default_factory=list)
    wall_time: list = field(default_factory=list)
    extras: dict = field(default_factory=dict)

    def append(
        self,
        it: int,
        loss: float,
        trace_phi: float = math.nan,
        trace_psi: float = math.nan,
        sigma_min_phi: float = math.nan,
        sigma_min_psi: float = math.nan,
        grad_norm: float = math.nan,
        wall_time: float = math.nan,
        **extras,
    ) -> None:
        if self.iters and it <= self.iters[-1]:
            raise ValueError(f"iterations must be strictly increasing, got {it} after {self.iters[-1]}")
        if not loss >= 0.0:
            raise ValueError(f"loss must be nonnegative, got {loss}")
        if self.iters and set(extras) != set(self.extras):
            raise ValueError(f"extras keys changed: {sorted(extras)} vs {sorted(self.extras)}")
        self.iters.append(int(it))
        self.loss.append(float(loss))
        self.trace_phi.append(float(trace_phi))
        self.trace_psi.append(float(trace_psi))
        self.sigma_min_phi.append(float(sigma_min_phi))
        self.sigma_min_psi.append(float(sigma_min_psi))
        self.grad_norm.append(float(grad_norm))
        self.wall_time.append(float(wall_time))
        for key, value in extras.items():
            self.extras.setdefault(key, []).append(float(value))

    def __len__(self) -> int:
        return len(self.iters)

    @property
    def final_loss(self) -> float:
        return self.loss[-1]

    def column(self, name: str) -> list:
        if name == "iter":
            return self.iters
        if name in CORE_COLUMNS:
            return getattr(self, name)
        return self.extras[name]


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


def write_trace(trace: RunTrace, out_dir, basename: str | None = None) -> str:
    """Write ``<basename>.csv`` and ``<basename>.json`` into ``out_dir``.

    Returns the CSV path.
    """
    os.makedirs(out_dir, exist_ok=True)
    stem = basename or trace_basename(trace)
    columns = list(CORE_COLUMNS) + sorted(trace.extras)
    cells = [map(str, trace.iters)] + [map(repr, trace.column(name)) for name in columns[1:]]
    lines = [",".join(columns), *map(",".join, zip(*cells, strict=True))]
    csv_path = os.path.join(out_dir, f"{stem}.csv")
    with open(csv_path, "w") as fh:
        fh.write("\n".join(lines) + "\n")

    meta = dict(trace.metadata)
    meta["algorithm"] = trace.algorithm
    meta["polarlab_version"] = __version__
    meta["n_records"] = len(trace)
    finite_wall = [t for t in trace.wall_time if not math.isnan(t)]
    meta["total_wall_time"] = finite_wall[-1] if finite_wall else None
    with open(os.path.join(out_dir, f"{stem}.json"), "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")
    return csv_path


def read_trace_csv(path) -> dict:
    """Read a trace CSV into a dict of column name -> list of floats; a ragged row raises ValueError."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        columns = {name: [] for name in header}
        for lineno, line in enumerate(fh, start=2):
            parts = line.strip().split(",")
            if len(parts) != len(header):
                raise ValueError(f"{path}:{lineno}: {len(parts)} cells, the header has {len(header)}")
            for name, val in zip(header, parts):
                columns[name].append(float(val))
    if "iter" in columns:
        columns["iter"] = [int(v) for v in columns["iter"]]
    return columns
