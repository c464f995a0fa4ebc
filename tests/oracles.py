"""Reference formulas the tests check the optimizers against.

The Theta refreshes and the projector-form and Euclidean gradients of the
three factorization losses, each written out directly. The optimizers in
``polarlab.factorization`` compute the same quantities in fused, expanded
forms; these are the plain versions.
"""

from __future__ import annotations

import numpy as np

from polarlab.factorization import BMFactors, FactorizationTarget, PolarFactors, SymFactors, SymTarget


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
