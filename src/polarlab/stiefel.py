"""Stiefel manifold primitives and spectral diagnostics.

Conventions used throughout the package:

* matrices are dense 2-D float64 numpy arrays,
* St(m, r) = {X in R^{m x r} : X^T X = I_r} with m >= r,
* randomness always flows through an explicit ``numpy.random.Generator``,
* 2-D products on the step path and the trace-row path are ``a.dot(b)``
  on an array ``a``: the C routine and BLAS call of ``np.dot`` and ``@``
  (gemm, or syrk for A^T A), so the same bits, without ``np.dot``'s
  ``__array_function__`` dispatch or ``@``'s matmul gufunc; products over
  stacked arrays, such as one kernel run for several seeds at once, use
  ``np.matmul``, which broadcasts and shares its dispatch across the stack,
* I is subtracted from a Gram matrix with the one read-only identity per
  rank, ``_eye(r)``, bit for bit as a strided update of the diagonal.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .exceptions import FeasibilityError, RankDeficientError

# Default feasibility tolerance for freshly constructed Stiefel points.
SAMPLE_FEASIBILITY_TOL = 1e-10
# Retraction outputs are certified slightly looser (accumulated rounding).
RETRACT_FEASIBILITY_TOL = 1e-9
# Relative eigenvalue cutoff of Z^T Z below which a Gaussian sample counts as rank deficient.
RANK_DEFICIENCY_RTOL = 1e-12
# Floor applied to eigenvalues before inverse square roots.
EIG_FLOOR = 1e-14
# Relative tolerance of the tangency check X^T D + D^T X = 0 in polar_retract.
TANGENCY_TOL = 1e-8
# Unit roundoff of float64; the binomial series in polar_retract is truncated
# once its tail is below it.
UNIT_ROUNDOFF = 2.0**-53
# Highest order of that series; larger orders fall back to eigh. Up to this
# order the series needs at most 10 r x r products, and one eigh with its
# rebuild costs about as much as 50 of them at r = 32 and 13 at r = 256
# (OpenBLAS, one thread, on a 2-core x86-64 VM).
RETRACT_SERIES_MAX_ORDER = 12
# Binomial coefficients c_k of (1 + x)^{-1/2} = sum_k c_k (-x)^k:
# c_0 = 1, c_k = c_{k-1} (2k - 1) / (2k).
_BINOMIAL_COEFFS = (
    1.0,
    1 / 2,
    3 / 8,
    5 / 16,
    35 / 128,
    63 / 256,
    231 / 1024,
    429 / 2048,
    6435 / 32768,
    12155 / 65536,
    46189 / 262144,
    88179 / 524288,
    676039 / 4194304,
)
# Rows of norm below this are left out of pairwise_direction_distances.
ZERO_ROW_TOL = 1e-12
# Newton-Schulz polishing target; effectively machine precision for the
# Gram residual (unreachable at large r, where the no-improvement stop kicks in).
SAMPLE_NS_FLOOR = 1e-14


def require_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and return ``a`` as a finite 2-D float64 array."""
    out = np.asarray(a, dtype=np.float64)
    if out.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {out.shape}")
    if not np.isfinite(out).all():
        raise ValueError(f"{name} contains non-finite entries")
    return out


@functools.cache
def _eye(r: int) -> np.ndarray:
    """The r x r identity, read-only, shared by every caller at rank r."""
    eye = np.eye(r)
    eye.flags.writeable = False
    return eye


def _gram_error(gram: np.ndarray) -> float:
    """||gram - I||_F of a square Gram matrix, subtracting I from it in place."""
    np.subtract(gram, _eye(gram.shape[0]), out=gram)
    return math.sqrt(np.vdot(gram, gram))


def _off_stiefel(name: str, shape, err: float, tol: float, where: str = "") -> FeasibilityError:
    return FeasibilityError(f"{name} is off St({shape[0]},{shape[1]}): ||X'X - I||_F = {err:.3e} > {tol:.1e}{where}")


def stiefel_error(X) -> float:
    """Frobenius norm of X^T X - I."""
    X = np.asarray(X, dtype=np.float64)
    return _gram_error(X.T.dot(X))


def require_stiefel(X, tol: float = SAMPLE_FEASIBILITY_TOL, name: str = "X") -> np.ndarray:
    """Validate that ``X`` has orthonormal columns within ``tol``."""
    X = require_matrix(X, name)
    m, r = X.shape
    if m < r:
        raise ValueError(f"{name} must be tall (m >= r), got {X.shape}")
    err = stiefel_error(X)
    if not err <= tol:
        raise _off_stiefel(name, X.shape, err, tol)
    return X


def sample_stiefel_uniform(m: int, r: int, rng: np.random.Generator) -> np.ndarray:
    """Draw X uniformly (Haar) from St(m, r).

    Uses the Gaussian construction X = Z (Z^T Z)^{-1/2} with Z i.i.d.
    standard normal. A singular Z^T Z (a measure-zero event) is retried
    once before raising.

    Parameters
    ----------
    m, r : int
        Target shape, 1 <= r <= m.
    rng : numpy.random.Generator
        Seeded random source.

    Returns
    -------
    ndarray of shape (m, r) with ||X^T X - I||_F <= 1e-10.
    """
    if not (1 <= r <= m):
        raise ValueError(f"need 1 <= r <= m, got m={m}, r={r}")

    def newton_schulz(X):  # X, its polish factor 1.5 I - 0.5 X^T X and ||X^T X - I||_F, from one Gram
        gram = X.T @ X
        return X, 1.5 * _eye(r) - 0.5 * gram, _gram_error(gram)

    for attempt in range(2):
        Z = rng.standard_normal((m, r))
        w, Q = np.linalg.eigh(Z.T @ Z)
        if w[0] > RANK_DEFICIENCY_RTOL * w[-1]:
            # an ill-conditioned Z leaves rounding of order kappa(Z)^2 eps.
            # Newton-Schulz polishing restores machine precision; stopping at
            # the certificate instead would leave a seed-dependent error that
            # downstream gradients amplify by the square of the target scale.
            X, factor, err = newton_schulz(Z @ ((Q / np.sqrt(w)) @ Q.T))
            for _ in range(8):
                if err <= SAMPLE_NS_FLOOR:
                    break
                polished, polished_factor, polished_err = newton_schulz(X @ factor)
                if polished_err >= err:
                    break
                X, factor, err = polished, polished_factor, polished_err
            if not err <= SAMPLE_FEASIBILITY_TOL:
                raise _off_stiefel("sampled X", X.shape, err, SAMPLE_FEASIBILITY_TOL)
            return X
    raise RankDeficientError("Gaussian sample was rank deficient twice in a row")


def retract_series_order(x: float) -> int | None:
    """Order n of the binomial series for (I + K)^{-1/2} at a bound x >= ||K||_2.

    n is the smallest order whose truncation bound c_n x^n / (1 - x) is at
    most the unit roundoff. ``None`` means no order qualifies: x >= 1/2, or
    n would exceed ``RETRACT_SERIES_MAX_ORDER``.
    """
    if not x < 0.5:
        return None
    for n in range(1, RETRACT_SERIES_MAX_ORDER + 1):
        if _BINOMIAL_COEFFS[n] * x**n / (1.0 - x) <= UNIT_ROUNDOFF:
            return n
    return None


def _binomial_inv_sqrt(K: np.ndarray, n: int) -> np.ndarray:
    """sum_{k<n} c_k (-K)^k for n >= 2, by Horner's rule in n - 2 products."""
    diag = np.s_[:: K.shape[0] + 1]
    S = np.multiply(K, -_BINOMIAL_COEFFS[n - 1])
    S.ravel()[diag] += _BINOMIAL_COEFFS[n - 2]
    for c in reversed(_BINOMIAL_COEFFS[: n - 2]):
        S = K.dot(S)
        np.negative(S, out=S)
        S.ravel()[diag] += c
    return S


def _series_order(K: np.ndarray) -> int | None:
    """Series order polar_retract uses for K = eta^2 D^T D, or ``None`` for eigh.

    The Frobenius norm decides first. Where it selects eigh, the order is
    taken again at min(||K||_F, ||K||_1): for symmetric K both bound
    ||K||_2, and ||K||_F overstates it by up to sqrt(r) when the spectrum
    is flat, as for a random direction at m >> r.
    """
    fro = math.sqrt(np.vdot(K, K))
    n = retract_series_order(fro)
    if n is None:
        n = retract_series_order(min(fro, float(np.abs(K).sum(axis=0).max())))
    return n


def polar_retract(X, D, eta: float) -> np.ndarray:
    """Polar retraction (X - eta D)(I + K)^{-1/2} with K = eta^2 D^T D.

    The inverse square root is the binomial series
    sum_{k<n} c_k (-K)^k, with c_0 = 1 and c_k = c_{k-1} (2k - 1) / (2k),
    truncated at the smallest order n whose tail bound c_n x^n / (1 - x)
    is at most the unit roundoff (see :func:`retract_series_order`). x is
    ||K||_F, or min(||K||_F, ||K||_1) where ||K||_F selects no order; both
    bound ||K||_2. At n = 1 the factor is I and no product is formed, and at
    n = 2 it is I - K/2. When x >= 1/2, or n would exceed
    ``RETRACT_SERIES_MAX_ORDER`` = 12, it comes from the eigendecomposition
    of D^T D instead.

    X and D must be 2-D of one tall shape and eta finite and >= 0, else
    ``ValueError``. D must be tangent at X: ||X^T D + D^T X||_F <= 1e-8
    max(1, ||D||_F), checked on every call (also under ``python -O``), else
    ``FeasibilityError``; ||D||_F is read only when the residual is above
    1e-8, the least value of that bound. The output is certified on
    St(m, r) at 1e-9 from its one Gram matrix, which a non-finite entry
    fails. Both errors name eta; the certificate's also names a nonzero
    tangency residual and its bound.
    """
    X = np.asarray(X, dtype=np.float64)
    D = np.asarray(D, dtype=np.float64)
    if X.ndim != 2 or X.shape != D.shape or X.shape[0] < X.shape[1]:
        raise ValueError(f"X and D must be 2-D of one tall shape (m >= r), got X {X.shape} and D {D.shape}")
    if not (math.isfinite(eta) and eta >= 0):
        raise ValueError(f"eta must be finite and nonnegative, got eta = {eta}")
    K = D.T.dot(D)
    sym = X.T.dot(D)
    sym = np.add(sym, sym.T)  # X^T D + D^T X, zero for tangent D; in place, numpy would copy sym.T
    err = math.sqrt(np.vdot(sym, sym))
    # the bound is at least 1e-8, so ||D||_F is read only where err exceeds that
    if not err <= TANGENCY_TOL and not err <= (tol := TANGENCY_TOL * max(1.0, math.sqrt(K.trace()))):
        raise FeasibilityError(
            f"retraction direction is not tangent: ||X'D + D'X||_F = {err:.3e} > {tol:.3e}"
            f" = {TANGENCY_TOL:.0e} max(1, ||D||_F) at eta = {eta:g}"
        )
    K *= eta * eta  # D^T D scaled in place, formed again for eigh
    n = _series_order(K)
    # X - eta D in one buffer: -fl(eta d) is exact and x + (-t) rounds like x - t
    step = np.multiply(D, -eta)
    step += X
    if n is None:
        w, Q = np.linalg.eigh(D.T.dot(D))
        scale = 1.0 / np.sqrt(np.maximum(1.0 + eta * eta * w, EIG_FLOOR))
        out = step.dot((Q * scale).dot(Q.T))
    elif n == 1:
        out = step
    elif n == 2:  # I - K/2, the first two terms
        out = step.dot(np.subtract(_eye(K.shape[0]), np.multiply(K, 0.5, out=K), out=K))
    else:
        out = step.dot(_binomial_inv_sqrt(K, n))
    off = _gram_error(out.T.dot(out))
    if not off <= RETRACT_FEASIBILITY_TOL:  # naming a normal part of D that passed the tangency check
        normal = f"; ||X'D + D'X||_F = {err:.3e} <= {TANGENCY_TOL * max(1.0, math.sqrt(np.vdot(D, D))):.3e}" if err else ""
        raise _off_stiefel("retracted X", out.shape, off, RETRACT_FEASIBILITY_TOL, f" at eta = {eta:g}{normal}")
    return out


def tangent_project(X: np.ndarray, G: np.ndarray) -> np.ndarray:
    """Projection of G onto the tangent space of St at X: G - X sym(X^T G)."""
    M = X.T.dot(G)
    out = X.dot(0.5 * (M + M.T))
    return np.subtract(G, out, out=out)


def distance_to_stiefel(X) -> float:
    """Squared feasibility gap N(X) = ||X^T X - I_r||_F^2."""
    X = require_matrix(X, "X")
    gap = X.T.dot(X) - _eye(X.shape[1])
    return float((gap * gap).sum())


@dataclass(frozen=True)
class SpectrumSummary:
    """Singular spectrum of a matrix with its stable rank."""

    singular_values: np.ndarray  # descending
    spectral: float
    stable_rank: float


def stable_rank(W) -> SpectrumSummary:
    """Stable rank ||W||_F^2 / ||W||_2^2 together with the full spectrum.

    Always lies in [1, #nonzero singular values]. Undefined (raises) for
    the zero matrix. The spectrum needs the SVD: eigenvalues of a Gram matrix
    lose the singular values below about sqrt(eps) * s_1. The adapter trace
    rows need only the ratio and read it from an r x r core of the factors'
    Gram matrices, or from W's smaller Gram matrix where that core cannot be
    formed.
    """
    W = require_matrix(W, "W")
    s = np.linalg.svd(W, compute_uv=False)
    if s[0] <= 0.0:
        raise ValueError("stable rank is undefined for the zero matrix")
    fro2 = float(np.sum(s * s))
    return SpectrumSummary(
        singular_values=s,
        spectral=float(s[0]),
        stable_rank=fro2 / float(s[0]) ** 2,
    )


@dataclass(frozen=True)
class AlignmentReport:
    """Alignment of a Stiefel point X with a reference basis U, through Phi = U^T X.

    ``trace_phi`` = Tr(Phi Phi^T) grows toward r_A as span(U) is captured by
    span(X); r_A - trace_phi = Tr(I - Phi Phi^T) is the squared chordal
    distance between the two spans.
    """

    trace_phi: float
    sigma_min_phi: float


def alignment(U, X) -> AlignmentReport:
    """Alignment diagnostics Phi = U^T X for U in St(m, r_A), X in St(m, r), r_A <= r."""
    U = require_stiefel(U, 1e-8, "U")
    X = require_stiefel(X, 1e-8, "X")
    if U.shape[0] != X.shape[0]:
        raise ValueError(f"row mismatch: U {U.shape} vs X {X.shape}")
    r_a, r = U.shape[1], X.shape[1]
    if r_a > r:
        raise ValueError(f"need r_A <= r, got r_A={r_a}, r={r}")
    phi = U.T.dot(X)
    s = np.linalg.svd(phi, compute_uv=False)
    return AlignmentReport(
        trace_phi=float(np.sum(phi * phi)),
        sigma_min_phi=float(s[-1]),
    )


@dataclass(frozen=True)
class DirectionDiversity:
    """Pairwise distances between unit-normalized rows of a matrix.

    ``distances`` covers the kept rows only (zero rows are excluded and
    listed in ``excluded_rows``); ``mean_distance`` is the mean of the
    off-diagonal entries, NaN when fewer than two rows survive.
    """

    distances: np.ndarray
    mean_distance: float
    excluded_rows: tuple[int, ...]


def pairwise_direction_distances(W) -> DirectionDiversity:
    """Pairwise Euclidean distances between the unit-normalized rows of W.

    Entries live in [0, 2]; 0 means identical directions, 2 antipodal.
    Rows with norm < ZERO_ROW_TOL are excluded and reported.
    """
    W = require_matrix(W, "W")
    norms = np.linalg.norm(W, axis=1)
    kept = norms >= ZERO_ROW_TOL
    excluded = tuple(int(i) for i in np.flatnonzero(~kept))
    if not kept.any():
        raise ValueError("all rows of W are numerically zero")
    R = W[kept] / norms[kept, None]
    gram = np.clip(R @ R.T, -1.0, 1.0)
    dist = np.sqrt(np.maximum(0.0, 2.0 - 2.0 * gram))
    dist = 0.5 * (dist + dist.T)
    np.fill_diagonal(dist, 0.0)
    k = dist.shape[0]
    if k >= 2:
        mean = float(dist.sum() / (k * (k - 1)))
    else:
        mean = float("nan")
    return DirectionDiversity(distances=dist, mean_distance=mean, excluded_rows=excluded)
