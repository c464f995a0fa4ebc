"""Correctness checks on what a benchmarked call produced.

Every check returns a list of problems, empty when the output is correct.
The checks read the run directory with their own parsers and recompute
the kernel results with their own formulas, so a defect in the program's
writers or kernels cannot hide itself.
"""

from __future__ import annotations

import csv
import glob
import math
import os

import numpy as np

# Retraction outputs are certified on St(m, r) to this Frobenius gap.
FEASIBILITY_TOL = 1e-9
# A landing run counts as landed when N(X) = ||X^T X - I||_F^2 is below this.
LANDED_TOL = 1e-6
# Relative tolerance of the kernel recomputations.
KERNEL_RTOL = 1e-10


def exit_code(code, expected: int) -> list:
    return [] if code == expected else [f"exit code {code}, expected {expected}"]


def trace_losses(out_dir) -> list:
    """The single trace CSV of a run has rows, and every loss is finite and nonnegative."""
    paths = sorted(glob.glob(os.path.join(out_dir, "*.csv")))
    if len(paths) != 1:
        return [f"expected one trace CSV in the run directory, found {len(paths)}"]
    with open(paths[0], newline="") as fh:
        losses = [float(row["loss"]) for row in csv.DictReader(fh)]
    if not losses:
        return ["trace CSV has no rows"]
    bad = [x for x in losses if not (math.isfinite(x) and x >= 0.0)]
    return [f"trace has {len(bad)} non-finite or negative losses, first {bad[0]!r}"] if bad else []


def load_matrix(path) -> np.ndarray:
    """Read the matrix CSV layout: a 'rows,cols' header, the two sizes, then the rows."""
    with open(path) as fh:
        if fh.readline().strip() != "rows,cols":
            raise ValueError(f"{path}: not a matrix CSV")
        rows, cols = (int(tok) for tok in fh.readline().split(","))
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if data.shape != (rows, cols):
        raise ValueError(f"{path}: declared {rows}x{cols}, read {data.shape}")
    return data


def stiefel_gap(X) -> float:
    """||X^T X - I||_F."""
    return float(np.linalg.norm(X.T @ X - np.eye(X.shape[1])))


def checkpoint_feasible(out_dir, names) -> list:
    """Each named checkpoint factor is on its Stiefel manifold to FEASIBILITY_TOL."""
    problems = []
    for name in names:
        gap = stiefel_gap(load_matrix(os.path.join(out_dir, "checkpoint", f"{name}.csv")))
        if not gap <= FEASIBILITY_TOL:
            problems.append(f"checkpoint {name} is infeasible: ||X'X - I||_F = {gap:.3e} > {FEASIBILITY_TOL:.0e}")
    return problems


def checkpoint_landed(out_dir, names) -> list:
    """Each named checkpoint factor has N(X) <= LANDED_TOL."""
    problems = []
    for name in names:
        n = stiefel_gap(load_matrix(os.path.join(out_dir, "checkpoint", f"{name}.csv"))) ** 2
        if not n <= LANDED_TOL:
            problems.append(f"checkpoint {name} did not land: N = {n:.3e} > {LANDED_TOL:.0e}")
    return problems


def tangent(X, G) -> np.ndarray:
    """G - X sym(X^T G), the projection of G onto the tangent space at X."""
    M = X.T @ G
    return G - X @ (0.5 * (M + M.T))


def _finite(out, shape) -> list:
    if not isinstance(out, np.ndarray) or out.shape != shape:
        return [f"output is not a {shape[0]}x{shape[1]} array"]
    if not np.isfinite(out).all():
        return ["output has non-finite entries"]
    return []


def retraction_output(X, D, eta: float, out) -> list:
    """``out`` is the polar factor of X - eta D: feasible, and (X - eta D)^T out
    is symmetric positive definite."""
    problems = _finite(out, X.shape)
    if problems:
        return problems
    gap = stiefel_gap(out)
    if not gap <= FEASIBILITY_TOL:
        problems.append(f"retraction output is infeasible: ||X'X - I||_F = {gap:.3e}")
    P = (X - eta * D).T @ out
    asym = float(np.linalg.norm(P - P.T)) / float(np.linalg.norm(P))
    if not asym <= KERNEL_RTOL:
        problems.append(f"retraction output is not the polar factor: asymmetry {asym:.3e}")
    elif not np.linalg.eigvalsh(0.5 * (P + P.T))[0] > 0.0:
        problems.append("retraction output is not the polar factor: (X - eta D)'out is not positive definite")
    return problems


def landing_output(X, G, eta: float, lam: float, out, rng) -> list:
    """``out`` equals X - eta (Skew(G X^T) X + lam 4 X (X^T X - I)), tested on a
    random probe vector with matrix-vector products only."""
    problems = _finite(out, X.shape)
    if problems:
        return problems
    v = rng.standard_normal(X.shape[1])
    Xv = X @ v
    skew_v = 0.5 * (G @ (X.T @ Xv) - X @ (G.T @ Xv))
    penalty_v = 4.0 * (X @ (X.T @ Xv) - Xv)
    expected = Xv - eta * (skew_v + lam * penalty_v)
    err = float(np.linalg.norm(out @ v - expected)) / float(np.linalg.norm(expected))
    if not err <= KERNEL_RTOL:
        problems.append(f"landing step differs from the landing field update: relative error {err:.3e}")
    return problems
