"""Landing-method adapter training on a whitened least-squares task.

The adapter is DeltaW = (alpha/r) X Theta Y^T with X, Y kept near their
Stiefel manifolds not by retraction but by descending the landing field

    Gamma(X) = Skew(grad_X L . X^T) X + lambda * grad N(X),
    N(X) = ||X^T X - I||_F^2,

whose two components are Frobenius-orthogonal by construction. All three
parameter updates of one step use gradients evaluated at the pre-step
state (one backward pass). ``AdapterState`` extends
:class:`~polarlab.factorization.PolarFactors` and ``LoraState``
:class:`~polarlab.factorization.BMFactors` by ``scale_alpha``, a checkpoint
``kind`` and the alpha / r scale of ``delta_w()``; only DeltaW is trained,
so neither holds the base weight. Their array fields (X, Theta, Y or Z1, Z2)
are packed in field order into one vector that one elementwise Adam
transform per step moves, bit for bit as one Adam per parameter would. The
stepped state's arrays are views of that vector, so the next step reads
them without repacking. A trace row's stable rank of DeltaW needs no SVD.

The task is least squares against whitened inputs: L = ||(W0 + DeltaW) D
- labels||_F^2 with D D^T = I, which collapses to the factored form
||DeltaW - residual||_F^2 + c. The trainers and ``WhitenedTask.loss``
report the factored residual, which leaves out c.
A plain LoRA-style baseline (two Euclidean factors, Z2 zero-initialized)
trains on the same task for comparison.

Both trainers are method objects that :func:`polarlab.runner.run` iterates
for the whole budget, with no early stop; ``polar_train_step`` and
``lora_train_step`` are one evaluate and step of the same methods. Every
setting of a trainer or a step, with its default and its range check, is a
field of :class:`polarlab.config.LandingConfig`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import ClassVar

import numpy as np

from .config import LandingConfig
from .factorization import BMFactors, PolarFactors, spaced_spectrum
from .runner import advance, run
# stable_rank is not called here; the name stays because benchmark/layers.py traces polarlab.landing.stable_rank
from .stiefel import distance_to_stiefel, sample_stiefel_uniform, stable_rank
from .trace import RunTrace

# Adam's moment decay rates and denominator guard, the same for every parameter
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# ---------------------------------------------------------------------------
# states


@dataclass
class AdapterState(PolarFactors):
    """The polar-parameterized update of a frozen base weight, DeltaW = (scale_alpha / r) X Theta Y^T."""

    scale_alpha: float = 32.0
    kind: ClassVar[str] = "polar-adapter"

    def delta_w(self) -> np.ndarray:
        return (self.scale_alpha / self.r) * super().delta_w()


@dataclass
class LoraState(BMFactors):
    """Two-factor Euclidean baseline, DeltaW = (scale_alpha / r) Z1 Z2^T."""

    scale_alpha: float = 32.0
    kind: ClassVar[str] = "lora"

    def delta_w(self) -> np.ndarray:
        return (self.scale_alpha / self.r) * super().delta_w()


def _params(state) -> list:
    """The names of a state's array fields in field order, the parameters one Adam moves."""
    return [f.name for f in fields(state) if isinstance(getattr(state, f.name), np.ndarray)]


def init_adapter_state(shape, r: int, rng: np.random.Generator, scale_alpha: float = 32.0) -> AdapterState:
    """Uniform Stiefel X, Y and Theta = 0 for an (m, n) base weight, so DeltaW = 0; needs 1 <= r <= min(m, n)."""
    m, n = shape
    if not (1 <= r <= min(m, n)):
        raise ValueError(f"need 1 <= r <= min(m, n), got r={r}, m={m}, n={n}")
    X, Y = sample_stiefel_uniform(m, r, rng), sample_stiefel_uniform(n, r, rng)
    return AdapterState(X=X, Theta=np.zeros((r, r)), Y=Y, scale_alpha=float(scale_alpha))


def init_lora_state(shape, r: int, rng: np.random.Generator, scale_alpha: float = 32.0) -> LoraState:
    """Standard LoRA init for an (m, n) base weight: Z1 Gaussian, Z2 = 0, so DeltaW = 0; needs r >= 1."""
    m, n = shape
    if r < 1:
        raise ValueError(f"need r >= 1, got r={r}, m={m}, n={n}")
    Z1 = (1.0 / np.sqrt(max(m, n))) * rng.standard_normal((m, r))
    return LoraState(Z1=Z1, Z2=np.zeros((n, r)), scale_alpha=float(scale_alpha))


@dataclass
class AdamState:
    """First/second moment accumulators of one array, e.g. a state's packed array fields."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def for_state(cls, state) -> "AdamState":
        """Zero moments over the packed array fields of an adapter state."""
        size = sum(getattr(state, name).size for name in _params(state))
        return cls(m=np.zeros(size), v=np.zeros(size))


def adam_transform(state: AdamState, g: np.ndarray) -> np.ndarray:
    """Bias-corrected Adam direction m_hat / (sqrt(v_hat) + eps) in a fresh array. Advances the
    state, updating ``m`` and ``v`` in place through one scratch array, in the plain expressions' order."""
    state.t += 1
    scratch = (1.0 - ADAM_BETA1) * g
    state.m *= ADAM_BETA1
    state.m += scratch
    np.multiply(g, g, out=scratch)
    scratch *= 1.0 - ADAM_BETA2
    state.v *= ADAM_BETA2
    state.v += scratch
    d = np.sqrt(np.divide(state.v, 1.0 - ADAM_BETA2**state.t, out=scratch))
    d += ADAM_EPS
    np.divide(state.m, 1.0 - ADAM_BETA1**state.t, out=scratch)
    return np.divide(scratch, d, out=d)


# ---------------------------------------------------------------------------
# landing field


def grad_distance_to_stiefel(X) -> np.ndarray:
    """Gradient of N(X) = ||X^T X - I||_F^2, namely 4 X (X^T X - I)."""
    X = np.asarray(X, dtype=np.float64)
    gap = X.T @ X
    gap.flat[:: X.shape[1] + 1] -= 1.0
    return 4.0 * (X @ gap)


def landing_field(X, grad_x, lam: float) -> np.ndarray:
    """Gamma(X) = Skew(grad_x X^T) X + lam * grad N(X).

    The loss component is the Riemannian gradient direction; the penalty
    component points toward the manifold; the two are orthogonal under the
    Frobenius inner product at every X.

    With A = X^T X formed once, Skew(G X^T) X = (G A - X (G^T X)) / 2 and
    grad N(X) = 4 X (A - I), so the field is evaluated as

        Gamma = G (A / 2) + X (4 lam (A - I) - (G^T X) / 2),

    four m x r x r products that never materialize an m x m matrix and keep
    the step at O(m r^2).
    """
    X = np.asarray(X, dtype=np.float64)
    grad_x = np.asarray(grad_x, dtype=np.float64)
    if X.shape != grad_x.shape:
        raise ValueError(f"shape mismatch: X {X.shape} vs grad {grad_x.shape}")
    A = X.T @ X
    out = grad_x @ (0.5 * A)
    A.flat[:: A.shape[0] + 1] -= 1.0  # A - I, in place
    out += X @ ((4.0 * lam) * A - 0.5 * (grad_x.T @ X))
    return out


# ---------------------------------------------------------------------------
# whitened task


@dataclass(frozen=True)
class WhitenedTask:
    """Least squares against whitened inputs with a planted low-rank residual.

    ``residual`` is the rank-r_A matrix labels D^T - W0 the adapter must
    represent; ``c`` is the constant offset between the direct and factored
    loss forms (zero when the labels are realizable); ``kappa`` is the
    condition number the spectrum was planted with, as given.
    """

    W0: np.ndarray
    D: np.ndarray
    labels: np.ndarray
    residual: np.ndarray
    c: float
    planted_sigma: np.ndarray
    kappa: float

    @property
    def r_a(self) -> int:
        return self.planted_sigma.size

    def loss(self, delta_w, direct: bool = False) -> float:
        """||delta_w - residual||_F^2 as the trainers report it, without c;
        with ``direct``, ||(W0 + delta_w) D - labels||_F^2, which includes c."""
        if direct:
            resid = (self.W0 + delta_w) @ self.D - self.labels
            return float(np.sum(resid * resid))
        diff = delta_w - self.residual
        return float(np.sum(diff * diff))


def make_whitened_task(
    m: int,
    n: int,
    n_cols: int,
    r_a: int,
    rng: np.random.Generator,
    kappa: float = 10.0,
) -> WhitenedTask:
    """Build a whitened task whose optimal adapter is a known rank-r_a matrix.

    D is n x n_cols with orthonormal rows (n_cols >= n), W0 has i.i.d.
    N(0, 1/n) entries, and labels are (W0 + P) D, so the equivalent factored
    target is exactly the planted P. P's spectrum is ``spaced_spectrum(r_a,
    kappa, normalize=True)``, checked before anything is drawn from ``rng``.
    """
    if n_cols < n:
        raise ValueError(f"need n_cols >= n for D D^T = I, got n_cols={n_cols}, n={n}")
    if not (1 <= r_a <= min(m, n)):
        raise ValueError(f"need 1 <= r_a <= min(m, n), got r_a={r_a}")
    sigma = spaced_spectrum(r_a, float(kappa), normalize=True)
    Q = np.linalg.qr(rng.standard_normal((n_cols, n)))[0]
    D = Q.T
    gram_err = float(np.linalg.norm(D @ D.T - np.eye(n)))
    if gram_err > 1e-10:
        raise ValueError(f"whitening failed: ||D D^T - I|| = {gram_err:.3e}")
    W0 = (1.0 / np.sqrt(n)) * rng.standard_normal((m, n))
    U_p = sample_stiefel_uniform(m, r_a, rng)
    V_p = sample_stiefel_uniform(n, r_a, rng)
    P = (U_p * sigma) @ V_p.T
    labels = (W0 + P) @ D
    c = float(np.sum(labels * labels)) - float(np.sum((labels @ D.T) ** 2))
    return WhitenedTask(W0=W0, D=D, labels=labels, residual=P, c=c, planted_sigma=sigma, kappa=float(kappa))


def whitened_task_grads(task: WhitenedTask, state: AdapterState) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """(G_X, G_Theta, G_Y, loss) of the task loss at the adapter state; the loss
    is the factored residual ||DeltaW - residual||_F^2, nonnegative by construction."""
    s = state.scale_alpha / state.r
    XT = state.X @ state.Theta
    diff = XT @ state.Y.T
    diff *= s
    diff -= task.residual
    loss = float((diff * diff).sum())
    diff *= 2.0  # the gradient in DeltaW; each product below is scaled by s in place
    grads = diff @ (state.Y @ state.Theta.T), state.X.T @ diff @ state.Y, diff.T @ XT
    for G in grads:
        G *= s
    return (*grads, loss)


def lora_grads(task: WhitenedTask, state: LoraState) -> tuple[np.ndarray, np.ndarray, float]:
    """(G_Z1, G_Z2, loss) of the task loss at the LoRA state, loss as in :func:`whitened_task_grads`."""
    s = state.scale_alpha / state.r
    diff = state.Z1 @ state.Z2.T
    diff *= s
    diff -= task.residual
    loss = float((diff * diff).sum())
    diff *= 2.0
    G1, G2 = diff @ state.Z2, diff.T @ state.Z1
    G1 *= s
    G2 *= s
    return G1, G2, loss


# ---------------------------------------------------------------------------
# methods, single steps and runners (the loop itself is polarlab.runner.run)


def _adapter_columns(state) -> dict:
    """Trace columns of either adapter: N of its two ``factors`` and the stable rank of W = DeltaW as
    trace(B) / lambda_max(B) = ||W||_F^2 / lambda_max(B), B the smaller of W^T W and W W^T: no SVD, equal
    to rounding. NaN where ||W||_F^2 is 0 or not finite, as for LoRA's DeltaW = 0 at initialization."""
    W = state.delta_w()
    fro2 = float(np.vdot(W, W))  # checked before B is formed, so a W holding inf or nan warns nowhere
    sr = math.nan
    if math.isfinite(fro2) and fro2 > 0.0:
        sr = fro2 / float(np.linalg.eigvalsh(W.T @ W if W.shape[0] >= W.shape[1] else W @ W.T)[-1])
    left, right = (getattr(state, name) for name in state.factors)
    return {"n_x": distance_to_stiefel(left), "n_y": distance_to_stiefel(right), "stable_rank": sr}


class _PackedAdam:
    """The step and the trace columns both adapters share. ``layout`` maps each
    array field of the state, in field order, to its slice and shape in one
    packed vector; a step moves the packed parameters p to p - eta_t * d, with
    d one Adam transform of ``directions``, one per field, which it packs in
    the same order into a buffer it owns. It also keeps the packed vector of
    the state it last returned, whose arrays are views of it: a step from that
    state reads p there, from any other it packs p afresh. The new parameters
    go into the fresh array Adam returns, so a step never writes the arrays of
    the state it steps from. The stepped state is built from the old one's
    fields, so scale_alpha stays the same object."""

    def __init__(self, task: WhitenedTask, cfg: LandingConfig, opt: AdamState, state):
        self.task, self.cfg, self.opt, self.layout, stop = task, cfg, opt, {}, 0
        for name in _params(state):
            a = getattr(state, name)
            self.layout[name], stop = (slice(stop, stop + a.size), a.shape), stop + a.size
        if opt.m.shape != (stop,):
            raise ValueError(f"opt has moments of shape {opt.m.shape}, the packed {tuple(self.layout)} need ({stop},)")
        self._directions, self._packed, self._views = np.empty(stop), None, (None,) * len(self.layout)

    def step(self, state, directions: tuple, it: int):
        eta_t = self.cfg.eta_at(it)
        params = [getattr(state, name) for name in self.layout]
        reuse = all(a is view for a, view in zip(params, self._views))
        p = self._packed if reuse else np.concatenate([a.ravel() for a in params])
        d = adam_transform(self.opt, np.concatenate([g.ravel() for g in directions], out=self._directions))
        d *= eta_t
        self._packed = np.subtract(p, d, out=d)
        self._views = tuple(d[s].reshape(shape) for s, shape in self.layout.values())
        return type(state)(**{**vars(state), **dict(zip(self.layout, self._views))})

    def record(self, state, ev) -> dict:
        return _adapter_columns(state)


class _PolarLanding(_PackedAdam):
    """The landing step of :func:`polar_train_step`. ``cfg.theta_mode="diagonal"``
    keeps Theta diagonal; ``cfg.grad_mode="euclidean"`` is the ablation arm: the
    raw loss gradient plus the same penalty instead of the field."""

    name = "landing-polar"

    def evaluate(self, state: AdapterState):
        G_X, G_Theta, G_Y, loss = whitened_task_grads(self.task, state)
        return state, loss, {"grads": (G_X, G_Theta, G_Y)}

    def step(self, state: AdapterState, ev: dict, it: int) -> AdapterState:
        cfg = self.cfg
        G_X, G_Theta, G_Y = ev["grads"]
        if cfg.theta_mode == "diagonal":
            G_Theta = np.diag(np.diag(G_Theta))
        if cfg.grad_mode == "landing":
            dir_X = landing_field(state.X, G_X, cfg.lam)
            dir_Y = landing_field(state.Y, G_Y, cfg.lam)
        else:
            dir_X = G_X + cfg.lam * grad_distance_to_stiefel(state.X)
            dir_Y = G_Y + cfg.lam * grad_distance_to_stiefel(state.Y)
        ev["taken"] = (dir_X, G_Theta, dir_Y)
        return super().step(state, ev["taken"], it)

    def record(self, state: AdapterState, ev: dict) -> dict:
        # the norm of the direction taken; the state after the last step takes none
        grad_norm = float("nan")
        if "taken" in ev:
            dir_X, G_Theta, dir_Y = ev["taken"]
            grad_norm = float(np.sqrt(np.sum(dir_X**2) + np.sum(dir_Y**2) + np.sum(G_Theta**2)))
        return {"grad_norm": grad_norm, **super().record(state, ev)}


class _Lora(_PackedAdam):
    """Adam on both Euclidean factors from one backward pass, along their gradients."""

    name = "lora"

    def evaluate(self, state: LoraState):
        G1, G2, loss = lora_grads(self.task, state)
        return state, loss, (G1, G2)


def polar_train_step(
    task: WhitenedTask, state: AdapterState, opt: AdamState, cfg: LandingConfig, t: int
) -> tuple[AdapterState, float]:
    """One landing step. All gradients are taken at the pre-step state; X and Y
    move along the Adam-transformed landing field (penalty inside), Theta along
    its Adam-transformed Euclidean gradient, as ``cfg.theta_mode`` and
    ``cfg.grad_mode`` select. ``opt`` is the Adam state of the packed
    parameters, at first ``AdamState.for_state(state)``. Returns the pre-step
    loss."""
    return advance(_PolarLanding(task, cfg, opt, state), state, t)


def lora_train_step(
    task: WhitenedTask, state: LoraState, opt: AdamState, cfg: LandingConfig, t: int
) -> tuple[LoraState, float]:
    """One Adam step of the Euclidean two-factor baseline on the same task,
    ``opt`` as in :func:`polar_train_step`."""
    return advance(_Lora(task, cfg, opt, state), state, t)


def _train(method: _PackedAdam, state):
    """Run ``method`` from ``state`` for its config's whole budget -> (final state, trace)."""
    task, cfg = method.task, method.cfg
    metadata = {
        "seed": cfg.seed,
        "eta": cfg.eta,
        "gamma": float("nan"),
        "m": task.W0.shape[0],
        "n": task.W0.shape[1],
        "r": state.r,
        "r_A": task.r_a,
        "kappa": task.kappa,
        "lam": cfg.lam,
        "scale_alpha": cfg.alpha,
        "method": method.name,
    }
    trace, state = run(method, state, metadata, cfg.max_iters, cfg.record_every)
    return state, trace


def train_polar_landing(task: WhitenedTask, r: int, cfg: LandingConfig) -> tuple[AdapterState, RunTrace]:
    """Train the polar adapter with the landing method for ``cfg.max_iters`` steps.

    The trace adds per-iteration columns n_x = N(X), n_y = N(Y) and
    stable_rank of DeltaW; subspace alignment columns are undefined off
    the manifold and recorded as NaN.
    """
    state = init_adapter_state(task.W0.shape, r, np.random.default_rng(cfg.seed), cfg.alpha)
    return _train(_PolarLanding(task, cfg, AdamState.for_state(state), state), state)


def train_lora(task: WhitenedTask, r: int, cfg: LandingConfig) -> tuple[LoraState, RunTrace]:
    """Train the Euclidean two-factor baseline with Adam on the same task."""
    state = init_lora_state(task.W0.shape, r, np.random.default_rng(cfg.seed), cfg.alpha)
    return _train(_Lora(task, cfg, AdamState.for_state(state), state), state)
