"""Reference formulas the tests check the optimizers against.

The Theta refreshes and the projector-form and Euclidean gradients of the
three factorization losses, each written out directly. The optimizers in
``polarlab.factorization`` compute the same quantities in fused, expanded
forms; these are the plain versions. The adapter steps below run one
out-of-place Adam per parameter, where ``polarlab.landing`` runs one
in-place Adam over the packed parameters.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from polarlab.factorization import BMFactors, FactorizationTarget, PolarFactors, SymFactors, SymTarget
from polarlab.landing import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    AdamState,
    grad_distance_to_stiefel,
    landing_field,
    lora_grads,
    whitened_task_grads,
)


def theta_update(target: FactorizationTarget, f: PolarFactors, gamma: float) -> np.ndarray:
    """Damped closed-form refresh Theta <- (1 - gamma) Theta + gamma X^T A Y."""
    return (1.0 - gamma) * f.Theta + gamma * (f.X.T @ target.A @ f.Y)


def theta_update_sym(target: SymTarget, f: SymFactors, gamma: float) -> np.ndarray:
    return (1.0 - gamma) * f.Theta + gamma * (f.X.T @ target.B @ f.X)


def riemannian_grads_asym(target: FactorizationTarget, f: PolarFactors) -> tuple[np.ndarray, np.ndarray]:
    """Projector-form gradients E = -(I - XX^T) A Y Theta^T, F = -(I - YY^T) A^T X Theta.

    These equal the Euclidean loss gradients (and are exactly tangent)
    when Theta has just been refreshed with gamma = 1; for damped Theta
    use the Euclidean + tangent-projection path in :func:`rgd_step_asym`.
    """
    T1 = (target.A @ f.Y) @ f.Theta.T
    E = f.X @ (f.X.T @ T1) - T1
    T2 = (target.A.T @ f.X) @ f.Theta
    F = f.Y @ (f.Y.T @ T2) - T2
    return E, F


def riemannian_grad_sym(target: SymTarget, f: SymFactors) -> np.ndarray:
    """G = -(I - XX^T) B X X^T B X, the symmetric-variant descent direction at gamma = 1."""
    W = target.B @ f.X
    P = W @ (f.X.T @ W)
    return f.X @ (f.X.T @ P) - P


def euclid_grads_asym(target: FactorizationTarget, f: PolarFactors) -> tuple[np.ndarray, np.ndarray]:
    """Euclidean gradients of loss_polar in X and Y at fixed Theta."""
    resid = (f.X @ f.Theta) @ f.Y.T - target.A
    return resid @ (f.Y @ f.Theta.T), resid.T @ (f.X @ f.Theta)


def euclid_grad_theta(target: FactorizationTarget, f: PolarFactors) -> np.ndarray:
    """Euclidean gradient of loss_polar in Theta."""
    resid = (f.X @ f.Theta) @ f.Y.T - target.A
    return f.X.T @ resid @ f.Y


def euclid_grads_bm(target: FactorizationTarget, f: BMFactors) -> tuple[np.ndarray, np.ndarray]:
    """Euclidean gradients of loss_bm."""
    resid = f.Z1 @ f.Z2.T - target.A
    return resid @ f.Z2, resid.T @ f.Z1


def euclid_grad_sym(target: SymTarget, f: SymFactors) -> np.ndarray:
    """Euclidean gradient of loss_sym in X at fixed Theta (general, possibly asymmetric Theta)."""
    resid = (f.X @ f.Theta) @ f.X.T - target.B
    return resid @ (f.X @ f.Theta.T) + resid.T @ (f.X @ f.Theta)


# ---------------------------------------------------------------------------
# adapter steps with one Adam per parameter


def per_parameter_opt(state) -> dict:
    """One zero AdamState per trained parameter of an adapter state."""
    return {name: AdamState.zeros_like(getattr(state, name)) for name in state.params}


def adam_reference(state: AdamState, g: np.ndarray) -> np.ndarray:
    """Bias-corrected Adam direction with fresh moment arrays each call."""
    state.t += 1
    state.m = ADAM_BETA1 * state.m + (1.0 - ADAM_BETA1) * g
    state.v = ADAM_BETA2 * state.v + (1.0 - ADAM_BETA2) * (g * g)
    m_hat = state.m / (1.0 - ADAM_BETA1**state.t)
    v_hat = state.v / (1.0 - ADAM_BETA2**state.t)
    return m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def _per_parameter_update(state, opts: dict, eta_t: float, directions: dict):
    moved = {name: getattr(state, name) - eta_t * adam_reference(opts[name], d) for name, d in directions.items()}
    return replace(state, **moved)


def polar_step_reference(task, state, opts: dict, cfg, t: int, theta_mode="full", grad_mode="landing"):
    """One landing step of the polar adapter, each parameter through its own Adam."""
    G_X, G_Theta, G_Y, _ = whitened_task_grads(task, state)
    if theta_mode == "diagonal":
        G_Theta = np.diag(np.diag(G_Theta))
    if grad_mode == "landing":
        dir_X, dir_Y = landing_field(state.X, G_X, cfg.lam), landing_field(state.Y, G_Y, cfg.lam)
    else:
        dir_X = G_X + cfg.lam * grad_distance_to_stiefel(state.X)
        dir_Y = G_Y + cfg.lam * grad_distance_to_stiefel(state.Y)
    return _per_parameter_update(state, opts, cfg.eta_at(t), {"X": dir_X, "Theta": G_Theta, "Y": dir_Y})


def lora_step_reference(task, state, opts: dict, cfg, t: int):
    """One Adam step of the LoRA baseline, each factor through its own Adam."""
    G1, G2, _ = lora_grads(task, state)
    return _per_parameter_update(state, opts, cfg.eta_at(t), {"Z1": G1, "Z2": G2})
