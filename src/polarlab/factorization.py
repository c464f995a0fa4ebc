"""Low-rank matrix factorization testbed.

Three algorithms on synthetic targets with controlled spectrum:

* ``polar-rgd``: overparameterized X Theta Y^T with X, Y on Stiefel
  manifolds, Theta refreshed by a gamma-damped closed-form update, X and Y
  moved by Riemannian gradient descent with the polar retraction,
* ``bm-gd``: plain gradient descent on the two-factor form Z1 Z2^T,
* ``polar-rgd-sym``: the symmetric PSD variant X Theta X^T.

All three fit a :class:`FactorizationTarget` (V = U for the symmetric one)
planted by :func:`spaced_spectrum` and report :func:`factor_loss`, 0.5 *
||DeltaW - A||_F^2. Alignment diagnostics track how the factor subspaces
capture the target's singular subspaces.

Each algorithm is a method object that :func:`polarlab.runner.run` iterates
until the loss threshold or the budget. The single steps (``rgd_step_asym``,
``gd_step_bm``, ``rgd_step_sym``) are one evaluate and step of the same
method, so each update is written once. The runners take their settings
from one :class:`polarlab.config.RGDConfig`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar

import numpy as np

from .config import RGDConfig
from .runner import advance, run
# require_stiefel is not called here; the name stays because benchmark/layers.py traces polarlab.factorization.require_stiefel
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
    headroom). If m < n the target is built transposed so that the stored A
    always has m >= n.
    """
    if m < n:
        m, n = n, m
    if not (1 <= r_a <= min(m, n) / 2):
        raise ValueError(f"need 1 <= r_a <= min(m, n)/2, got r_a={r_a}, m={m}, n={n}")
    sigma = spaced_spectrum(r_a, float(kappa), normalize)
    U = sample_stiefel_uniform(m, r_a, rng)
    V = sample_stiefel_uniform(n, r_a, rng)
    A = (U * sigma) @ V.T
    return FactorizationTarget(A=A, U=U, V=V, sigma=sigma, kappa=float(kappa))


def make_sym_target(
    m: int,
    r_a: int,
    kappa: float,
    rng: np.random.Generator,
    normalize: bool = False,
) -> FactorizationTarget:
    """Symmetric PSD analogue of :func:`make_target`: A = U diag(sigma) U^T, V = U."""
    if not (1 <= r_a <= m / 2):
        raise ValueError(f"need 1 <= r_a <= m/2, got r_a={r_a}, m={m}")
    sigma = spaced_spectrum(r_a, float(kappa), normalize)
    U = sample_stiefel_uniform(m, r_a, rng)
    B = (U * sigma) @ U.T
    B = 0.5 * (B + B.T)
    return FactorizationTarget(A=B, U=U, V=U, sigma=sigma, kappa=float(kappa))


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
        return (self.X @ self.Theta) @ self.Y.T


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
        return self.Z1 @ self.Z2.T


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
        return (self.X @ self.Theta) @ self.X.T


def init_polar_factors(target: FactorizationTarget, r: int, rng: np.random.Generator) -> PolarFactors:
    """Uniform Stiefel X, Y and Theta = 0. Requires r_a < r <= n."""
    if not (target.r_a < r <= target.n):
        raise ValueError(f"need r_a < r <= n, got r={r}, r_a={target.r_a}, n={target.n}")
    X = sample_stiefel_uniform(target.m, r, rng)
    Y = sample_stiefel_uniform(target.n, r, rng)
    return PolarFactors(X=X, Theta=np.zeros((r, r)), Y=Y)


def init_bm_factors(target: FactorizationTarget, r: int, rng: np.random.Generator) -> BMFactors:
    """i.i.d. Gaussian factors with std 1/sqrt(max(m, n))."""
    if not (target.r_a < r <= target.n):
        raise ValueError(f"need r_a < r <= n, got r={r}, r_a={target.r_a}, n={target.n}")
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
# single steps


def rgd_step_asym(target: FactorizationTarget, f: PolarFactors, eta: float, gamma: float = 1.0) -> PolarFactors:
    """One full step of the asymmetric algorithm: Theta refresh, then
    simultaneous retraction updates of X and Y from that same Theta."""
    return advance(_PolarRGD(target, eta, gamma), f, 0)[0]


def gd_step_bm(target: FactorizationTarget, f: BMFactors, eta: float) -> BMFactors:
    """Simultaneous GD update of both factors from the same residual."""
    return advance(_BMGD(target, eta), f, 0)[0]


def rgd_step_sym(target: FactorizationTarget, f: SymFactors, eta: float, gamma: float = 1.0) -> SymFactors:
    """One Theta refresh + retraction step of the symmetric algorithm."""
    return advance(_SymRGD(target, eta, gamma), f, 0)[0]


# ---------------------------------------------------------------------------
# alignment monotonicity diagnostics


@dataclass(frozen=True)
class AlignmentGainReport:
    """Both sides of the increasing-alignment condition and whether it holds."""

    lhs_x: float
    rhs_x: float
    lhs_y: float
    rhs_y: float
    holds_x: bool
    holds_y: bool

    @property
    def holds(self) -> bool:
        return self.holds_x and self.holds_y


def alignment_gain_predicate(target: FactorizationTarget, f: PolarFactors, eta: float) -> AlignmentGainReport:
    """Sufficient condition under which one gamma = 1 RGD step cannot decrease
    the alignment traces Tr(Phi Phi^T), Tr(Psi Psi^T).

    With beta = sigma_1(I - Phi Phi^T) and delta = sigma_1(I - Psi Psi^T):

        2 (1 - eta^2 beta) sigma_min^2(Psi) / kappa^2 * Tr((I - Phi Phi^T) Phi Phi^T)
            >= eta beta Tr(Phi Phi^T)

    and the Psi analogue with the roles of Phi and Psi swapped. The condition
    is stated for sigma_1 = 1; a step with eta on A equals a step with
    eta sigma_1^2 on A / sigma_1, so eta is rescaled accordingly.
    """
    eta = eta * float(target.sigma[0]) ** 2
    kappa2 = target.kappa**2
    s_phi = np.linalg.svd(target.U.T @ f.X, compute_uv=False)
    s_psi = np.linalg.svd(target.V.T @ f.Y, compute_uv=False)
    lam_phi = s_phi**2
    lam_psi = s_psi**2
    beta = float(1.0 - lam_phi.min())
    delta = float(1.0 - lam_psi.min())
    lhs_x = 2.0 * (1.0 - eta**2 * beta) * float(lam_psi.min()) / kappa2 * float(np.sum(lam_phi * (1.0 - lam_phi)))
    rhs_x = eta * beta * float(np.sum(lam_phi))
    lhs_y = 2.0 * (1.0 - eta**2 * delta) * float(lam_phi.min()) / kappa2 * float(np.sum(lam_psi * (1.0 - lam_psi)))
    rhs_y = eta * delta * float(np.sum(lam_psi))
    return AlignmentGainReport(
        lhs_x=lhs_x,
        rhs_x=rhs_x,
        lhs_y=lhs_y,
        rhs_y=rhs_y,
        holds_x=lhs_x >= rhs_x,
        holds_y=lhs_y >= rhs_y,
    )


def loss_alignment_bound(target: FactorizationTarget, f: PolarFactors) -> tuple[float, float]:
    """(loss, bound) where bound = 2 sigma_1^2 (rho_1 + rho_2) with
    rho_1 = Tr(I - Phi Phi^T), rho_2 = Tr(I - Psi Psi^T).

    The bound dominates the full squared residual at a gamma = 1 state
    (Theta = X^T A Y), hence also the halved loss reported here.
    """
    phi = target.U.T @ f.X
    psi = target.V.T @ f.Y
    rho1 = target.r_a - float(np.sum(phi * phi))
    rho2 = target.r_a - float(np.sum(psi * psi))
    bound = 2.0 * float(target.sigma[0]) ** 2 * (rho1 + rho2)
    return factor_loss(target, f), bound


# ---------------------------------------------------------------------------
# methods and runners (the loop itself is polarlab.runner.run)


def _alignment_columns(target, X, Y, grad_sq: float) -> dict:
    """Trace columns: alignment of X (and Y) with the target's singular subspaces, and the gradient norm."""
    phi = alignment(target.U, X)
    columns = {"trace_phi": phi.trace_phi, "sigma_min_phi": phi.sigma_min_phi, "grad_norm": float(np.sqrt(grad_sq))}
    if Y is not None:
        psi = alignment(target.V, Y)
        columns.update(trace_psi=psi.trace_phi, sigma_min_psi=psi.sigma_min_phi)
    return columns


class _PolarRGD:
    """Theta refresh, then retraction of X along E and of Y along F."""

    name = "polar-rgd"

    def __init__(self, target: FactorizationTarget, eta: float, gamma: float):
        self.target, self.eta, self.gamma = target, eta, gamma

    def evaluate(self, f: PolarFactors):
        """The refreshed-Theta state, its loss and (grad norm^2, E, F)."""
        target, gamma = self.target, self.gamma
        AY = target.A @ f.Y
        AtX = target.A.T @ f.X
        M = f.X.T @ AY
        Theta = M if gamma == 1.0 else (1.0 - gamma) * f.Theta + gamma * M
        # 0.5||X Theta Y^T - A||^2 expanded under X^T X = Y^T Y = I
        theta_m = float((Theta * M).sum())  # and ||Theta||^2 too at gamma = 1, where Theta is M
        loss = 0.5 * (target.a2 - 2.0 * theta_m + (theta_m if gamma == 1.0 else float((Theta * Theta).sum())))
        if gamma == 1.0:
            T1 = AY @ Theta.T
            E = f.X @ (f.X.T @ T1)
            E -= T1
            T2 = AtX @ Theta
            F = f.Y @ (f.Y.T @ T2)
            F -= T2
        else:
            # Euclidean gradients at fixed (damped) Theta, then tangent projection
            gX = f.X @ (Theta @ Theta.T) - AY @ Theta.T
            gY = f.Y @ (Theta.T @ Theta) - AtX @ Theta
            E = tangent_project(f.X, gX)
            F = tangent_project(f.Y, gY)
        grad_sq = float((E * E).sum() + (F * F).sum())
        return PolarFactors(X=f.X, Theta=Theta, Y=f.Y), max(loss, 0.0), (grad_sq, E, F)

    def step(self, f: PolarFactors, ev, it: int) -> PolarFactors:
        _, E, F = ev
        return PolarFactors(X=polar_retract(f.X, E, self.eta), Theta=f.Theta, Y=polar_retract(f.Y, F, self.eta))

    def record(self, f: PolarFactors, ev) -> dict:
        return _alignment_columns(self.target, f.X, f.Y, ev[0])


class _BMGD:
    """Simultaneous gradient descent on both factors from the same residual."""

    name = "bm-gd"

    def __init__(self, target: FactorizationTarget, eta: float):
        self.target, self.eta = target, eta

    def evaluate(self, f: BMFactors):
        resid = f.delta_w() - self.target.A
        return f, 0.5 * float(np.sum(resid * resid)), (resid @ f.Z2, resid.T @ f.Z1)

    def step(self, f: BMFactors, ev, it: int) -> BMFactors:
        G1, G2 = ev
        return BMFactors(Z1=f.Z1 - self.eta * G1, Z2=f.Z2 - self.eta * G2)

    def record(self, f: BMFactors, ev) -> dict:
        G1, G2 = ev
        # subspace alignment of the orthonormalized factors
        Q1 = np.linalg.qr(f.Z1)[0]
        Q2 = np.linalg.qr(f.Z2)[0]
        return _alignment_columns(self.target, Q1, Q2, float(np.sum(G1 * G1) + np.sum(G2 * G2)))


class _SymRGD:
    """Theta refresh, then retraction of X along G; psi diagnostics are undefined."""

    name = "polar-rgd-sym"

    def __init__(self, target: FactorizationTarget, eta: float, gamma: float):
        self.target, self.eta, self.gamma = target, eta, gamma

    def evaluate(self, f: SymFactors):
        """The refreshed-Theta state, its loss and (grad norm^2, G)."""
        target, gamma = self.target, self.gamma
        AX = target.A @ f.X
        M = f.X.T @ AX
        Theta = M if gamma == 1.0 else (1.0 - gamma) * f.Theta + gamma * M
        theta_m = float((Theta * M).sum())  # and ||Theta||^2 too at gamma = 1, where Theta is M
        loss = 0.5 * (target.a2 - 2.0 * theta_m + (theta_m if gamma == 1.0 else float((Theta * Theta).sum())))
        if gamma == 1.0:
            P = AX @ M
            G = f.X @ (f.X.T @ P)
            G -= P
        else:
            # Euclidean gradient R X Theta^T + R^T X Theta expanded under X^T X = I
            gX = f.X @ (Theta @ Theta.T + Theta.T @ Theta) - AX @ (Theta.T + Theta)
            G = tangent_project(f.X, gX)
        return SymFactors(X=f.X, Theta=Theta), max(loss, 0.0), (float((G * G).sum()), G)

    def step(self, f: SymFactors, ev, it: int) -> SymFactors:
        return SymFactors(X=polar_retract(f.X, ev[1], self.eta), Theta=f.Theta)

    def record(self, f: SymFactors, ev) -> dict:
        return _alignment_columns(self.target, f.X, None, ev[0])


def _run(method, f, cfg: RGDConfig, gamma: float):
    """Run ``method`` from ``f`` under ``cfg``; the trace's metadata records ``gamma`` as given."""
    target = method.target
    metadata = {
        "seed": cfg.seed,
        "eta": cfg.eta,
        "gamma": gamma,
        "m": target.m,
        "n": target.n,
        "r": f.r,
        "r_A": target.r_a,
        "kappa": target.kappa,
    }
    return run(method, f, metadata, cfg.max_iters, cfg.record_every, cfg.loss_threshold)


def run_polar_rgd(target: FactorizationTarget, r: int, cfg: RGDConfig) -> tuple[RunTrace, PolarFactors]:
    """Run the asymmetric Stiefel algorithm until the loss threshold or budget.

    The trace records the loss at the Theta-refreshed state of each recorded
    iteration. ``metadata['converged']`` reports threshold attainment;
    ``metadata['iterations']`` is the exact crossing iteration when converged
    and ``max_iters`` otherwise.
    """
    f = init_polar_factors(target, r, np.random.default_rng(cfg.seed))
    return _run(_PolarRGD(target, cfg.eta, cfg.gamma), f, cfg, cfg.gamma)


def run_bm_gd(target: FactorizationTarget, r: int, cfg: RGDConfig) -> tuple[RunTrace, BMFactors]:
    """Plain GD baseline on the two-factor parameterization; ``cfg.gamma`` is
    unused and recorded as NaN."""
    f = init_bm_factors(target, r, np.random.default_rng(cfg.seed))
    return _run(_BMGD(target, cfg.eta), f, cfg, float("nan"))


def run_sym_rgd(target: FactorizationTarget, r: int, cfg: RGDConfig) -> tuple[RunTrace, SymFactors]:
    """Symmetric-variant runner; psi diagnostics are undefined and recorded as NaN."""
    f = init_sym_factors(target, r, np.random.default_rng(cfg.seed))
    return _run(_SymRGD(target, cfg.eta, cfg.gamma), f, cfg, cfg.gamma)
