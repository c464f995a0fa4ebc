"""Landing-method adapter training on a whitened least-squares task.

The adapter is DeltaW = (alpha/r) X Theta Y^T with X, Y kept near their
Stiefel manifolds not by retraction but by descending the landing field

    Gamma(X) = Skew(grad_X L . X^T) X + lambda * grad N(X),
    N(X) = ||X^T X - I||_F^2,

whose two components are Frobenius-orthogonal by construction. All three
parameter updates of one step use gradients evaluated at the pre-step
state (one backward pass). alpha is the constant ``ADAPTER_ALPHA``: the
scale of DeltaW lies in Theta (or in Z1, Z2), and under Adam tuning alpha
is roughly tuning the step, which is why LoRA (Hu et al., arXiv:2106.09685)
fixes it. ``AdapterState`` extends
:class:`~polarlab.factorization.PolarFactors` and ``LoraState``
:class:`~polarlab.factorization.BMFactors` by a checkpoint ``kind`` and the
alpha / r scale of ``delta_w()``; only DeltaW is trained, so neither holds
the base weight. Their fields (X, Theta, Y or Z1, Z2), all arrays, are
packed in field order into one vector that one elementwise Adam transform
per step moves, bit for bit as one Adam per parameter would. The stepped
state is made of views of that vector, so the next step reads them without
repacking. A trace row reads the stable rank of DeltaW from an
r x r core of the factors' Gram matrices, with no SVD; it forms DeltaW only
where the Cholesky factor of the first Gram matrix fails.

The loss is ||DeltaW - A||_F^2 on a
:class:`~polarlab.factorization.FactorizationTarget`, as
:func:`~polarlab.factorization.make_whitened_task` plants it. Least squares
against whitened inputs, ||(W0 + DeltaW) D - labels||_F^2 with D D^T = I, is
this loss plus a constant c; that whitened form and c live in
``tests/oracles.py``, where A8 checks the identity. A plain LoRA-style
baseline (two Euclidean factors, Z2 zero-initialized) trains on the same
target for comparison.

Both trainers are method objects that :func:`polarlab.runner.run` iterates
for the whole budget, with no early stop; like the factorization runners,
each inits from the target and runs through ``factorization._run``, which
returns (trace, final state). A single step is :func:`polarlab.runner.advance`
on the same object. Every setting of a trainer, with its default and its
range check, is a field of :class:`polarlab.config.LandingConfig`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import ClassVar

import numpy as np

from .config import LandingConfig
from .factorization import BMFactors, FactorizationTarget, PolarFactors, _run
# distance_to_stiefel and stable_rank are not called here; the names stay because benchmark/layers.py
# traces polarlab.landing.distance_to_stiefel and polarlab.landing.stable_rank
from .stiefel import _eye, distance_to_stiefel, sample_stiefel_uniform, stable_rank
from .trace import RunTrace

# Adam's moment decay rates and denominator guard, the same for every parameter
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# alpha of the adapters' DeltaW scale alpha / r
ADAPTER_ALPHA = 32.0

# ---------------------------------------------------------------------------
# states


class AdapterState(PolarFactors):
    """The polar-parameterized update of a frozen base weight, DeltaW = (scale_alpha / r) X Theta Y^T."""

    scale_alpha: ClassVar[float] = ADAPTER_ALPHA
    kind: ClassVar[str] = "polar-adapter"

    def delta_w(self) -> np.ndarray:
        return (self.scale_alpha / self.r) * super().delta_w()


class LoraState(BMFactors):
    """Two-factor Euclidean baseline, DeltaW = (scale_alpha / r) Z1 Z2^T."""

    scale_alpha: ClassVar[float] = ADAPTER_ALPHA
    kind: ClassVar[str] = "lora"

    def delta_w(self) -> np.ndarray:
        return (self.scale_alpha / self.r) * super().delta_w()


def init_adapter_state(target: FactorizationTarget, r: int, rng: np.random.Generator) -> AdapterState:
    """Uniform Stiefel X, Y and Theta = 0 for the (m, n) ``target``, so DeltaW = 0; needs 1 <= r <= min(m, n)."""
    m, n = target.m, target.n
    if not (1 <= r <= min(m, n)):
        raise ValueError(f"need 1 <= r <= min(m, n), got r={r}, m={m}, n={n}")
    X, Y = sample_stiefel_uniform(m, r, rng), sample_stiefel_uniform(n, r, rng)
    return AdapterState(X=X, Theta=np.zeros((r, r)), Y=Y)


def init_lora_state(target: FactorizationTarget, r: int, rng: np.random.Generator) -> LoraState:
    """Standard LoRA init for the (m, n) ``target``: Z1 Gaussian, Z2 = 0, so DeltaW = 0; needs r >= 1."""
    m, n = target.m, target.n
    if r < 1:
        raise ValueError(f"need r >= 1, got r={r}, m={m}, n={n}")
    Z1 = (1.0 / np.sqrt(max(m, n))) * rng.standard_normal((m, r))
    return LoraState(Z1=Z1, Z2=np.zeros((n, r)))


@dataclass
class AdamState:
    """First/second moment accumulators of one array, e.g. a state's packed array fields."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0


def adam_transform(state: AdamState, g: np.ndarray) -> np.ndarray:
    """Bias-corrected Adam direction m_hat / (sqrt(v_hat) + eps) in a fresh array. Advances the
    state, updating ``m`` and ``v`` in place through one scratch array, in the plain expressions' order.
    From t = 356 on, 1 - beta1^t rounds to 1.0, so m_hat is ``m`` itself: x / 1.0 == x, the bits stay."""
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
    bc1 = 1.0 - ADAM_BETA1**state.t
    m_hat = state.m if bc1 == 1.0 else np.divide(state.m, bc1, out=scratch)
    return np.divide(m_hat, d, out=d)


# ---------------------------------------------------------------------------
# landing field


def grad_distance_to_stiefel(X) -> np.ndarray:
    """Gradient of N(X) = ||X^T X - I||_F^2, namely 4 X (X^T X - I)."""
    X = np.asarray(X, dtype=np.float64)
    return 4.0 * np.dot(X, np.dot(X.T, X) - _eye(X.shape[1]))


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
    A = np.dot(X.T, X)
    out = np.dot(grad_x, 0.5 * A)
    np.subtract(A, _eye(A.shape[0]), out=A)  # A - I, in place
    out += np.dot(X, (4.0 * lam) * A - 0.5 * np.dot(grad_x.T, X))
    return out


# ---------------------------------------------------------------------------
# task gradients


def whitened_task_grads(target: FactorizationTarget, state: AdapterState) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """(G_X, G_Theta, G_Y, loss) of the task loss ||DeltaW - A||_F^2 at the adapter state."""
    s = state.scale_alpha / state.r
    XT = np.dot(state.X, state.Theta)
    diff = np.dot(XT, state.Y.T)
    diff *= s
    diff -= target.A
    loss = float(np.vdot(diff, diff))
    diff *= 2.0  # the gradient in DeltaW; each product below is scaled by s in place
    grads = np.dot(diff, np.dot(state.Y, state.Theta.T)), np.dot(np.dot(state.X.T, diff), state.Y), np.dot(diff.T, XT)
    for G in grads:
        G *= s
    return (*grads, loss)


def lora_grads(target: FactorizationTarget, state: LoraState) -> tuple[np.ndarray, np.ndarray, float]:
    """(G_Z1, G_Z2, loss) of the task loss at the LoRA state, loss as in :func:`whitened_task_grads`."""
    s = state.scale_alpha / state.r
    diff = np.dot(state.Z1, state.Z2.T)
    diff *= s
    diff -= target.A
    loss = float(np.vdot(diff, diff))
    diff *= 2.0
    G1, G2 = np.dot(diff, state.Z2), np.dot(diff.T, state.Z1)
    G1 *= s
    G2 *= s
    return G1, G2, loss


# ---------------------------------------------------------------------------
# methods and runners (the loop itself is polarlab.runner.run)


def _adapter_columns(state) -> dict:
    """Trace columns of either adapter: N of its two ``factors``, read with the bits of
    ``distance_to_stiefel`` from their Gram matrices G1, G2, and the stable rank of W = DeltaW. Over
    s^2, W = s F1 C F2^T (C = Theta, or I for LoRA) shares its nonzero squared singular values with
    the r x r core B = L^T (C G2 C^T) L, G1 = L L^T, so it is trace(B) / lambda_max(B), equal to
    rounding; where Cholesky fails on G1, as on a LoRA Z1 that lost rank, B is the smaller of W^T W
    and W W^T. NaN where trace(B) is 0 or not finite, as for DeltaW = 0 at initialization; a state
    with an inf or nan entry reads NaN or inf with no numpy warning."""
    left, right = (getattr(state, name) for name in state.factors)
    with np.errstate(invalid="ignore", over="ignore"):  # inf * 0 in the products of a non-finite state
        grams = np.dot(left.T, left), np.dot(right.T, right)
        try:
            core = np.linalg.cholesky(grams[0])
        except np.linalg.LinAlgError:
            W = state.delta_w()
            B = np.dot(W.T, W) if W.shape[0] >= W.shape[1] else np.dot(W, W.T)
            trace = float(np.vdot(W, W))
        else:
            inner = grams[1] if isinstance(state, LoraState) else np.dot(np.dot(state.Theta, grams[1]), state.Theta.T)
            B = np.dot(np.dot(core.T, inner), core)
            trace = float(B.trace())
    sr = trace / float(np.linalg.eigvalsh(B)[-1]) if math.isfinite(trace) and trace > 0.0 else math.nan
    for gap in grams:
        np.subtract(gap, _eye(gap.shape[0]), out=gap)
    return {"n_x": float((grams[0] * grams[0]).sum()), "n_y": float((grams[1] * grams[1]).sum()), "stable_rank": sr}


class _PackedAdam:
    """The step and the trace columns both adapters share. ``layout`` maps each
    field of the state, in field order, to its slice and shape in one
    packed vector, whose Adam state ``opt`` starts at zero; a step moves the
    packed parameters p to p - eta_t * d, with d the Adam transform of
    ``directions``, one per field, which it packs in the same order into a
    buffer it owns. It also keeps the packed vector of the state it last
    returned, whose arrays are views of it: a step from that state reads p
    there, from any other it packs p afresh. The new parameters go into the
    fresh array Adam returns, so a step never writes the arrays of the state it
    steps from; the stepped state is made of the views alone."""

    def __init__(self, target: FactorizationTarget, cfg: LandingConfig, state):
        self.target, self.cfg, self.layout, stop = target, cfg, {}, 0
        for f in fields(state):
            a = getattr(state, f.name)
            self.layout[f.name], stop = (slice(stop, stop + a.size), a.shape), stop + a.size
        self.opt = AdamState(m=np.zeros(stop), v=np.zeros(stop))
        self._directions, self._packed, self._views = np.empty(stop), None, (None,) * len(self.layout)

    def step(self, state, directions: tuple, it: int):
        eta_t = self.cfg.eta_at(it)
        reuse = all(getattr(state, name) is view for name, view in zip(self.layout, self._views))
        p = self._packed if reuse else np.concatenate([getattr(state, name).ravel() for name in self.layout])
        d = adam_transform(self.opt, np.concatenate([g.ravel() for g in directions], out=self._directions))
        d *= eta_t
        self._packed = np.subtract(p, d, out=d)
        self._views = tuple(d[s].reshape(shape) for s, shape in self.layout.values())
        return type(state)(**dict(zip(self.layout, self._views)))

    def record(self, state, ev: dict) -> dict:
        # the norm of the directions a step handed to Adam, summed in the order of ev["taken"],
        # which the subclass's step sets; the state after the last step takes none
        taken = ev.get("taken")
        grad_norm = math.nan if taken is None else math.sqrt(sum(np.vdot(d, d) for d in taken))
        return {"grad_norm": grad_norm, **_adapter_columns(state)}


class _PolarLanding(_PackedAdam):
    """X and Y move along the landing field (penalty inside), Theta along its
    gradient, each Adam-transformed. ``cfg.grad_mode="euclidean"`` is the
    ablation arm: the raw loss gradient plus the same penalty instead of the
    field."""

    name = "landing-polar"

    def evaluate(self, state: AdapterState):
        G_X, G_Theta, G_Y, loss = whitened_task_grads(self.target, state)
        return state, loss, {"grads": (G_X, G_Theta, G_Y)}

    def step(self, state: AdapterState, ev: dict, it: int) -> AdapterState:
        cfg = self.cfg
        G_X, G_Theta, G_Y = ev["grads"]
        if cfg.grad_mode == "landing":
            dir_X = landing_field(state.X, G_X, cfg.lam)
            dir_Y = landing_field(state.Y, G_Y, cfg.lam)
        else:
            dir_X = G_X + cfg.lam * grad_distance_to_stiefel(state.X)
            dir_Y = G_Y + cfg.lam * grad_distance_to_stiefel(state.Y)
        ev["taken"] = (dir_X, dir_Y, G_Theta)  # the factors' first, the order of grad_norm's sum
        return super().step(state, (dir_X, G_Theta, dir_Y), it)


class _Lora(_PackedAdam):
    """Adam on both Euclidean factors from one backward pass, along their gradients."""

    name = "lora"

    def evaluate(self, state: LoraState):
        G1, G2, loss = lora_grads(self.target, state)
        return state, loss, {"grads": (G1, G2)}

    def step(self, state: LoraState, ev: dict, it: int) -> LoraState:
        ev["taken"] = ev["grads"]
        return super().step(state, ev["taken"], it)


def train_polar_landing(target: FactorizationTarget, r: int, cfg: LandingConfig) -> tuple[RunTrace, AdapterState]:
    """Train the polar adapter with the landing method for ``cfg.max_iters`` steps -> (trace, final state).

    The trace adds per-iteration columns n_x = N(X), n_y = N(Y) and
    stable_rank of DeltaW; subspace alignment columns are undefined off
    the manifold and recorded as NaN. Its metadata adds lam and method.
    """
    state = init_adapter_state(target, r, np.random.default_rng(cfg.seed))
    method = _PolarLanding(target, cfg, state)
    return _run(method, state, cfg, None, lam=cfg.lam, method=method.name)


def train_lora(target: FactorizationTarget, r: int, cfg: LandingConfig) -> tuple[RunTrace, LoraState]:
    """Train the Euclidean two-factor baseline with Adam on the same target, as :func:`train_polar_landing` runs."""
    state = init_lora_state(target, r, np.random.default_rng(cfg.seed))
    method = _Lora(target, cfg, state)
    return _run(method, state, cfg, None, lam=cfg.lam, method=method.name)
