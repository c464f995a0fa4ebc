"""Low-rank matrix factorization testbed.

Two methods on synthetic targets with controlled spectrum:

* ``polar-rgd``: overparameterized X Theta Y^T with X, Y on Stiefel
  manifolds, Theta refreshed in closed form as X^T A Y, X and Y moved by
  Riemannian gradient descent with the polar retraction along
  (X Theta - A Y) Theta^T and (Y Theta^T - A^T X) Theta, two products each.
  On a symmetric PSD target, ``polar-rgd-sym`` is the same method with Y
  tied to X: X Theta X^T, with X retracted along the sum of both directions,
* ``bm-gd``: plain gradient descent on the two-factor form Z1 Z2^T.

Each fits a :class:`FactorizationTarget` with a :func:`spaced_spectrum`
and reports :func:`factor_loss`, 0.5 * ||DeltaW - A||_F^2. Three
constructors plant one: :func:`make_target`, :func:`make_sym_target` (V = U)
and :func:`make_whitened_task`, the target the adapter trainers of
``polarlab.landing`` fit. Alignment diagnostics track how the factor
subspaces capture the target's singular subspaces.

Each method is an object that :func:`polarlab.runner.run` iterates
until the loss threshold or the budget; a single step is
:func:`polarlab.runner.advance` on the same object, so each update is
written once. The runners take their settings from one
:class:`polarlab.config.RGDConfig`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar

import numpy as np

from .config import LandingConfig, RGDConfig
from .runner import run
# require_stiefel and tangent_project are not called here; they stay because benchmark/layers.py traces both names here
from .stiefel import (
    alignment,
    polar_retract,
    require_stiefel,
    sample_stiefel_uniform,
    tangent_project,
)
from .trace import RunTrace


# ---------------------------------------------------------------------------
# targets


@dataclass(frozen=True)
class FactorizationTarget:
    """Rank-r_A target A = U diag(sigma) V^T, sigma_1 / sigma_{r_A} = kappa; V = U if symmetric PSD."""

    A: np.ndarray
    U: np.ndarray
    V: np.ndarray
    sigma: np.ndarray
    kappa: float

    @property
    def m(self) -> int:
        return self.A.shape[0]

    @property
    def n(self) -> int:
        return self.A.shape[1]

    @property
    def r_a(self) -> int:
        return self.sigma.size

    @cached_property
    def a2(self) -> float:
        """||A||_F^2, the constant term of the expanded loss."""
        return float(np.sum(self.A * self.A))


def spaced_spectrum(r_a: int, kappa: float, normalize: bool) -> np.ndarray:
    """r_a descending singular values evenly spaced on [1, kappa], or with ``normalize`` on
    [1/kappa, 1] (sigma_1 = 1, which slows the eta-dependent dynamics by kappa^2)."""
    if not np.isfinite(kappa):
        raise ValueError(f"kappa must be finite, got {kappa}")
    if kappa < 1.0:
        raise ValueError(f"kappa must be >= 1, got {kappa}")
    if r_a == 1:
        if kappa != 1.0:
            raise ValueError("r_a = 1 forces kappa = 1 (the spectrum is a single value)")
        return np.ones(1)
    sigma = np.linspace(kappa, 1.0, r_a)
    return sigma / kappa if normalize else sigma


def _planted(m: int, n: int, sigma: np.ndarray, kappa: float, rng: np.random.Generator) -> FactorizationTarget:
    """The (m, n) target A = U diag(sigma) V^T with U, then V, drawn uniform from their Stiefel manifolds."""
    U = sample_stiefel_uniform(m, sigma.size, rng)
    V = sample_stiefel_uniform(n, sigma.size, rng)
    return FactorizationTarget(A=(U * sigma) @ V.T, U=U, V=V, sigma=sigma, kappa=float(kappa))


def make_target(
    m: int,
    n: int,
    r_a: int,
    kappa: float,
    rng: np.random.Generator,
    normalize: bool = False,
) -> FactorizationTarget:
    """Build a rank-r_A target with evenly spaced spectrum and condition number kappa.

    Singular values are evenly spaced on [1, kappa]; ``normalize`` rescales
    them to [1/kappa, 1]. Requires r_a <= min(m, n) / 2 (overparameterization
    headroom). A is m x n as given, tall, square or wide.
    """
    if not (1 <= r_a <= min(m, n) / 2):
        raise ValueError(f"need 1 <= r_a <= min(m, n)/2, got r_a={r_a}, m={m}, n={n}")
    return _planted(m, n, spaced_spectrum(r_a, float(kappa), normalize), kappa, rng)


def make_sym_target(
    m: int,
    r_a: int,
    kappa: float,
    rng: np.random.Generator,
) -> FactorizationTarget:
    """Symmetric PSD analogue of :func:`make_target`, spectrum on [1, kappa]: A = U diag(sigma) U^T, V = U."""
    if not (1 <= r_a <= m / 2):
        raise ValueError(f"need 1 <= r_a <= m/2, got r_a={r_a}, m={m}")
    sigma = spaced_spectrum(r_a, float(kappa), normalize=False)
    U = sample_stiefel_uniform(m, r_a, rng)
    B = (U * sigma) @ U.T
    B = 0.5 * (B + B.T)
    return FactorizationTarget(A=B, U=U, V=U, sigma=sigma, kappa=float(kappa))


def make_whitened_task(
    m: int,
    n: int,
    n_cols: int,
    r_a: int,
    rng: np.random.Generator,
    kappa: float = 10.0,
) -> FactorizationTarget:
    """The planted target P of the whitened adapter task: an (m, n) target of rank r_a.

    The task is least squares ||(W0 + DeltaW) D - labels||_F^2 with labels = (W0 + P) D
    and n x n_cols whitened inputs D (D D^T = I, so n_cols >= n). It is ||DeltaW - P||_F^2
    plus a constant, so the adapter trainers fit P alone. ``rng`` still draws the (n_cols, n)
    and (m, n) normals that D and W0 are formed from, and discards them, so that P is the P of
    that task on the same generator. P's spectrum is ``spaced_spectrum(r_a, kappa,
    normalize=True)``. Every check runs before ``rng`` draws.
    """
    if n_cols < n:
        raise ValueError(f"need n_cols >= n for D D^T = I, got n_cols={n_cols}, n={n}")
    if not (1 <= r_a <= min(m, n)):
        raise ValueError(f"need 1 <= r_a <= min(m, n), got r_a={r_a}")
    sigma = spaced_spectrum(r_a, float(kappa), normalize=True)
    rng.standard_normal((n_cols, n))  # D's draw
    rng.standard_normal((m, n))  # W0's draw
    return _planted(m, n, sigma, kappa, rng)


# ---------------------------------------------------------------------------
# factor containers and initialization


@dataclass
class PolarFactors:
    X: np.ndarray
    Theta: np.ndarray
    Y: np.ndarray
    kind: ClassVar[str] = "polar-factors"
    factors: ClassVar[tuple] = ("X", "Y")

    @property
    def r(self) -> int:
        return self.X.shape[1]

    def delta_w(self) -> np.ndarray:
        return self.X.dot(self.Theta).dot(self.Y.T)


@dataclass
class BMFactors:
    Z1: np.ndarray
    Z2: np.ndarray
    kind: ClassVar[str] = "bm-factors"
    factors: ClassVar[tuple] = ("Z1", "Z2")

    @property
    def r(self) -> int:
        return self.Z1.shape[1]

    def delta_w(self) -> np.ndarray:
        return self.Z1.dot(self.Z2.T)


@dataclass
class SymFactors:
    X: np.ndarray
    Theta: np.ndarray
    kind: ClassVar[str] = "sym-factors"
    factors: ClassVar[tuple] = ("X", "X")

    @property
    def r(self) -> int:
        return self.X.shape[1]

    def delta_w(self) -> np.ndarray:
        return self.X.dot(self.Theta).dot(self.X.T)


def init_polar_factors(target: FactorizationTarget, r: int, rng: np.random.Generator) -> PolarFactors:
    """Uniform Stiefel X, Y and Theta = 0. Requires r_a < r <= min(m, n)."""
    if not (target.r_a < r <= min(target.m, target.n)):
        raise ValueError(f"need r_a < r <= min(m, n), got r={r}, r_a={target.r_a}, m={target.m}, n={target.n}")
    X = sample_stiefel_uniform(target.m, r, rng)
    Y = sample_stiefel_uniform(target.n, r, rng)
    return PolarFactors(X=X, Theta=np.zeros((r, r)), Y=Y)


def init_bm_factors(target: FactorizationTarget, r: int, rng: np.random.Generator) -> BMFactors:
    """i.i.d. Gaussian factors with std 1/sqrt(max(m, n)). Requires r_a < r <= min(m, n)."""
    if not (target.r_a < r <= min(target.m, target.n)):
        raise ValueError(f"need r_a < r <= min(m, n), got r={r}, r_a={target.r_a}, m={target.m}, n={target.n}")
    std = 1.0 / np.sqrt(max(target.m, target.n))
    Z1 = std * rng.standard_normal((target.m, r))
    Z2 = std * rng.standard_normal((target.n, r))
    return BMFactors(Z1=Z1, Z2=Z2)


def init_sym_factors(target: FactorizationTarget, r: int, rng: np.random.Generator) -> SymFactors:
    if not (target.r_a < r <= target.m):
        raise ValueError(f"need r_a < r <= m, got r={r}, r_a={target.r_a}, m={target.m}")
    X = sample_stiefel_uniform(target.m, r, rng)
    return SymFactors(X=X, Theta=np.zeros((r, r)))


# ---------------------------------------------------------------------------
# losses


def factor_loss(target: FactorizationTarget, f: PolarFactors | BMFactors | SymFactors) -> float:
    """0.5 ||f.delta_w() - A||_F^2 for any of the three factor states."""
    resid = f.delta_w() - target.A
    return 0.5 * float(np.sum(resid * resid))


# ---------------------------------------------------------------------------
# methods and runners (the loop itself is polarlab.runner.run)


def _alignment_columns(target, X, Y, grads: tuple) -> dict:
    """Trace columns: alignment of X (and Y) with the target's singular subspaces, and the norm of ``grads``."""
    phi = alignment(target.U, X)
    grad_sq = sum(float((G * G).sum()) for G in grads)
    columns = {"trace_phi": phi.trace_phi, "sigma_min_phi": phi.sigma_min_phi, "grad_norm": float(np.sqrt(grad_sq))}
    if Y is not None:
        psi = alignment(target.V, Y)
        columns.update(trace_psi=psi.trace_phi, sigma_min_psi=psi.sigma_min_phi)
    return columns


class _PolarRGD:
    """Theta refresh, then retraction of X along E and of Y along F. ``tied`` steps a
    :class:`SymFactors` state as Y tied to X, on a symmetric A: one retraction of X along E + F."""

    def __init__(self, target: FactorizationTarget, eta: float, tied: bool = False):
        if tied and not np.array_equal(target.A, target.A.T):  # the tied step reads A X for A^T X
            asym = float(np.abs(target.A - target.A.T).max())
            raise ValueError(f"Y tied to X needs an exactly symmetric A, got max |A - A^T| = {asym:.3e}")
        self.target, self.eta, self.tied = target, eta, tied
        self.name = "polar-rgd-sym" if tied else "polar-rgd"

    def evaluate(self, f: PolarFactors | SymFactors):
        """The refreshed state, Theta = X^T A Y, its loss and the Riemannian gradients (E, F), or (E + F,) when tied.
        Since X^T A Y = Theta, E = (XX^T - I) A Y Theta^T is (X Theta - A Y) Theta^T and F = (YY^T - I) A^T X Theta
        is (Y Theta^T - A^T X) Theta, two products each; tied, E + F = (X Theta - A X)(Theta^T + Theta)."""
        target, tied, X = self.target, self.tied, f.X
        Y = X if tied else f.Y
        AY = target.A.dot(Y)
        AtX = AY if tied else target.A.T.dot(X)
        Theta = X.T.dot(AY)
        # 0.5||X Theta Y^T - A||^2 expanded under X^T X = Y^T Y = I; a2 - theta_m would round differently
        theta_m = float((Theta * Theta).sum())
        loss = 0.5 * (target.a2 - 2.0 * theta_m + theta_m)
        E = (X.dot(Theta) - AY).dot(Theta.T + Theta if tied else Theta.T)
        if not tied:
            F = (Y.dot(Theta.T) - AtX).dot(Theta)
        state = SymFactors(X=X, Theta=Theta) if tied else PolarFactors(X=X, Theta=Theta, Y=Y)
        return state, max(loss, 0.0), (E,) if tied else (E, F)

    def step(self, f: PolarFactors | SymFactors, ev, it: int) -> PolarFactors | SymFactors:
        X = polar_retract(f.X, ev[0], self.eta)
        if self.tied:
            return SymFactors(X=X, Theta=f.Theta)
        return PolarFactors(X=X, Theta=f.Theta, Y=polar_retract(f.Y, ev[1], self.eta))

    def record(self, f: PolarFactors | SymFactors, ev) -> dict:
        return _alignment_columns(self.target, f.X, None if self.tied else f.Y, ev)


class _BMGD:
    """Simultaneous gradient descent on both factors from the same residual."""

    name = "bm-gd"

    def __init__(self, target: FactorizationTarget, eta: float):
        self.target, self.eta = target, eta

    def evaluate(self, f: BMFactors):
        resid = f.delta_w()
        resid -= self.target.A
        return f, 0.5 * float(np.vdot(resid, resid)), (resid.dot(f.Z2), resid.T.dot(f.Z1))

    def step(self, f: BMFactors, ev, it: int) -> BMFactors:
        # Z - eta G as Z + (-eta G): -fl(eta g) is exact and z + (-t) rounds like z - t. G is
        # not written, as the row of this iteration reads its norm after the step
        G1, G2 = ev
        Z1 = np.multiply(G1, -self.eta)
        Z1 += f.Z1
        Z2 = np.multiply(G2, -self.eta)
        Z2 += f.Z2
        return BMFactors(Z1=Z1, Z2=Z2)

    def record(self, f: BMFactors, ev) -> dict:
        # subspace alignment of the orthonormalized factors
        Q1 = np.linalg.qr(f.Z1)[0]
        Q2 = np.linalg.qr(f.Z2)[0]
        return _alignment_columns(self.target, Q1, Q2, ev)


def _run(method, f, cfg: RGDConfig | LandingConfig, loss_threshold: float | None = None, /, **extra):
    """Run ``method`` from ``f`` under ``cfg`` -> (trace, final state); the one builder of run metadata
    for all five runners. The trace's metadata ends with the ``extra`` keys, which may be named
    like a parameter of this function (the adapters pass ``method``)."""
    target = method.target
    metadata = {
        "seed": cfg.seed,
        "eta": cfg.eta,
        "m": target.m,
        "n": target.n,
        "r": f.r,
        "r_A": target.r_a,
        "kappa": target.kappa,
        **extra,
    }
    return run(method, f, metadata, cfg.max_iters, cfg.record_every, loss_threshold)


def run_polar_rgd(target: FactorizationTarget, r: int, cfg: RGDConfig) -> tuple[RunTrace, PolarFactors]:
    """Run the asymmetric Stiefel algorithm until the loss threshold or budget.

    The trace records the loss at the Theta-refreshed state of each recorded
    iteration. ``metadata['converged']`` reports threshold attainment;
    ``metadata['iterations']`` is the exact crossing iteration when converged
    and ``max_iters`` otherwise.
    """
    f = init_polar_factors(target, r, np.random.default_rng(cfg.seed))
    return _run(_PolarRGD(target, cfg.eta), f, cfg, cfg.loss_threshold)


def run_bm_gd(target: FactorizationTarget, r: int, cfg: RGDConfig) -> tuple[RunTrace, BMFactors]:
    """Plain GD baseline on the two-factor parameterization."""
    f = init_bm_factors(target, r, np.random.default_rng(cfg.seed))
    return _run(_BMGD(target, cfg.eta), f, cfg, cfg.loss_threshold)


def run_sym_rgd(target: FactorizationTarget, r: int, cfg: RGDConfig) -> tuple[RunTrace, SymFactors]:
    """polar-rgd with Y tied to X, on a target whose A equals A^T exactly; psi columns are NaN."""
    method = _PolarRGD(target, cfg.eta, tied=True)  # rejects an asymmetric A before the draw
    f = init_sym_factors(target, r, np.random.default_rng(cfg.seed))
    return _run(method, f, cfg, cfg.loss_threshold)
