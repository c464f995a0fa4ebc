"""Reference formulas the tests check the optimizers against.

The Theta refreshes and the projector-form and Euclidean gradients of the
three factorization losses, each written out directly. The optimizers in
``polarlab.factorization`` compute the same quantities in fused, expanded
forms; these are the plain versions. The adapter steps below run one
out-of-place Adam per parameter, where ``polarlab.landing`` runs one
in-place Adam over the packed parameters.

The allocating manifold kernels at the end (retraction, tangent projection,
Haar sampler and the RGD evaluations) are the plain-expression versions of
the in-place kernels in ``polarlab.stiefel`` and ``polarlab.factorization``,
which must reproduce them bit for bit. The polar factor and the orthogonal
complement beside them are the textbook SVD and QR constructions. The
matrix CSV writer, which formats whole rows at once, must give the bytes
of the entry-by-entry formula at the end.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from polarlab.exceptions import RankDeficientError
from polarlab.factorization import BMFactors, FactorizationTarget, PolarFactors, SymFactors
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
from polarlab.stiefel import (
    _BINOMIAL_COEFFS,
    EIG_FLOOR,
    RANK_DEFICIENCY_RTOL,
    RETRACT_FEASIBILITY_TOL,
    SAMPLE_FEASIBILITY_TOL,
    SAMPLE_NS_FLOOR,
    require_stiefel,
    retract_series_order,
    stiefel_error,
)


def theta_update(target: FactorizationTarget, f: PolarFactors, gamma: float) -> np.ndarray:
    """Damped closed-form refresh Theta <- (1 - gamma) Theta + gamma X^T A Y."""
    return (1.0 - gamma) * f.Theta + gamma * (f.X.T @ target.A @ f.Y)


def theta_update_sym(target: FactorizationTarget, f: SymFactors, gamma: float) -> np.ndarray:
    return (1.0 - gamma) * f.Theta + gamma * (f.X.T @ target.A @ f.X)


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


def riemannian_grad_sym(target: FactorizationTarget, f: SymFactors) -> np.ndarray:
    """G = -(I - XX^T) A X X^T A X, the symmetric-variant descent direction at gamma = 1."""
    W = target.A @ f.X
    P = W @ (f.X.T @ W)
    return f.X @ (f.X.T @ P) - P


def euclid_grads_asym(target: FactorizationTarget, f: PolarFactors) -> tuple[np.ndarray, np.ndarray]:
    """Euclidean gradients of the polar factor loss in X and Y at fixed Theta."""
    resid = (f.X @ f.Theta) @ f.Y.T - target.A
    return resid @ (f.Y @ f.Theta.T), resid.T @ (f.X @ f.Theta)


def euclid_grad_theta(target: FactorizationTarget, f: PolarFactors) -> np.ndarray:
    """Euclidean gradient of the polar factor loss in Theta."""
    resid = (f.X @ f.Theta) @ f.Y.T - target.A
    return f.X.T @ resid @ f.Y


def euclid_grads_bm(target: FactorizationTarget, f: BMFactors) -> tuple[np.ndarray, np.ndarray]:
    """Euclidean gradients of the BM factor loss."""
    resid = f.Z1 @ f.Z2.T - target.A
    return resid @ f.Z2, resid.T @ f.Z1


def euclid_grad_sym(target: FactorizationTarget, f: SymFactors) -> np.ndarray:
    """Euclidean gradient of the symmetric factor loss in X at fixed Theta (general, possibly asymmetric Theta)."""
    resid = (f.X @ f.Theta) @ f.X.T - target.A
    return resid @ (f.X @ f.Theta.T) + resid.T @ (f.X @ f.Theta)


# ---------------------------------------------------------------------------
# adapter steps with one Adam per parameter


# the trained parameters of each adapter kind, in the order one packed Adam moves them
PARAMS = {"polar-adapter": ("X", "Theta", "Y"), "lora": ("Z1", "Z2")}


def per_parameter_opt(state) -> dict:
    """One zero AdamState per trained parameter of an adapter state."""
    params = {name: getattr(state, name) for name in PARAMS[state.kind]}
    return {name: AdamState(m=np.zeros_like(x), v=np.zeros_like(x)) for name, x in params.items()}


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


def polar_directions_reference(task, state, cfg, theta_mode="full", grad_mode="landing") -> dict:
    """The directions a landing step of the polar adapter takes, by parameter, in fresh arrays."""
    G_X, G_Theta, G_Y, _ = whitened_task_grads(task, state)
    if theta_mode == "diagonal":
        G_Theta = np.diag(np.diag(G_Theta))
    if grad_mode == "landing":
        dir_X, dir_Y = landing_field(state.X, G_X, cfg.lam), landing_field(state.Y, G_Y, cfg.lam)
    else:
        dir_X = G_X + cfg.lam * grad_distance_to_stiefel(state.X)
        dir_Y = G_Y + cfg.lam * grad_distance_to_stiefel(state.Y)
    return {"X": dir_X, "Theta": G_Theta, "Y": dir_Y}


def polar_step_reference(task, state, opts: dict, cfg, t: int, theta_mode="full", grad_mode="landing"):
    """One landing step of the polar adapter, each parameter through its own Adam."""
    directions = polar_directions_reference(task, state, cfg, theta_mode, grad_mode)
    return _per_parameter_update(state, opts, cfg.eta_at(t), directions)


def lora_step_reference(task, state, opts: dict, cfg, t: int):
    """One Adam step of the LoRA baseline, each factor through its own Adam."""
    G1, G2, _ = lora_grads(task, state)
    return _per_parameter_update(state, opts, cfg.eta_at(t), {"Z1": G1, "Z2": G2})


# ---------------------------------------------------------------------------
# allocating manifold kernels and RGD evaluations


def binomial_inv_sqrt_reference(K: np.ndarray, n: int) -> np.ndarray:
    """sum_{k<n} c_k (-K)^k for n >= 2 by Horner's rule, a fresh array per term."""
    diag = np.s_[:: K.shape[0] + 1]
    S = -_BINOMIAL_COEFFS[n - 1] * K
    S.flat[diag] += _BINOMIAL_COEFFS[n - 2]
    for c in reversed(_BINOMIAL_COEFFS[: n - 2]):
        S = -(K @ S)
        S.flat[diag] += c
    return S


def polar_retract_reference(X, D, eta: float) -> np.ndarray:
    """(X - eta D)(I + eta^2 D^T D)^{-1/2}, certified through ``require_stiefel``.

    D is taken to be tangent at X; the tangency check does not touch the output.
    """
    X = np.asarray(X, dtype=np.float64)
    D = np.asarray(D, dtype=np.float64)
    M = D.T @ D
    K = (eta * eta) * M
    n = retract_series_order(np.linalg.norm(K))
    if n is None:
        n = retract_series_order(min(np.linalg.norm(K), np.linalg.norm(K, 1)))
    step = X - eta * D
    if n is None:
        w, Q = np.linalg.eigh(M)
        scale = 1.0 / np.sqrt(np.maximum(1.0 + eta * eta * w, EIG_FLOOR))
        out = step @ ((Q * scale) @ Q.T)
    elif n == 1:
        out = step
    else:
        out = step @ binomial_inv_sqrt_reference(K, n)
    return require_stiefel(out, RETRACT_FEASIBILITY_TOL, "retracted X")


def tangent_project_reference(X: np.ndarray, G: np.ndarray) -> np.ndarray:
    M = X.T @ G
    return G - X @ (0.5 * (M + M.T))


def polar_factor(Z) -> np.ndarray:
    """The semi-orthogonal factor P Q^T of the polar decomposition, from the thin SVD Z = P S Q^T."""
    P, _, Qt = np.linalg.svd(Z, full_matrices=False)
    return P @ Qt


def orthogonal_complement(U) -> np.ndarray:
    """Orthonormal basis of the complement of span(U): the last m - r columns of U's complete QR."""
    return np.linalg.qr(U, mode="complete")[0][:, U.shape[1] :]


def sample_stiefel_uniform_reference(m: int, r: int, rng: np.random.Generator, floor=SAMPLE_NS_FLOOR) -> np.ndarray:
    """Haar sample Z (Z^T Z)^{-1/2}, Newton-Schulz polished down to ``floor``, forming each Gram where it is used."""
    eye = np.eye(r)
    for attempt in range(2):
        Z = rng.standard_normal((m, r))
        w, Q = np.linalg.eigh(Z.T @ Z)
        if w[0] > RANK_DEFICIENCY_RTOL * w[-1]:
            X = Z @ ((Q / np.sqrt(w)) @ Q.T)
            err = stiefel_error(X)
            for _ in range(8):
                if err <= floor:
                    break
                polished = X @ (1.5 * eye - 0.5 * (X.T @ X))
                polished_err = stiefel_error(polished)
                if polished_err >= err:
                    break
                X, err = polished, polished_err
            return require_stiefel(X, SAMPLE_FEASIBILITY_TOL, "sampled X")
    raise RankDeficientError("Gaussian sample was rank deficient twice in a row")


def polar_rgd_evaluate_reference(target: FactorizationTarget, f: PolarFactors, gamma: float):
    """(Theta, expanded loss, grad norm^2, E, F) of one polar-rgd evaluation."""
    AY = target.A @ f.Y
    AtX = target.A.T @ f.X
    M = f.X.T @ AY
    Theta = M if gamma == 1.0 else (1.0 - gamma) * f.Theta + gamma * M
    loss = 0.5 * (target.a2 - 2.0 * float(np.sum(Theta * M)) + float(np.sum(Theta * Theta)))
    if gamma == 1.0:
        T1 = AY @ Theta.T
        E = f.X @ (f.X.T @ T1) - T1
        T2 = AtX @ Theta
        F = f.Y @ (f.Y.T @ T2) - T2
    else:
        E = tangent_project_reference(f.X, f.X @ (Theta @ Theta.T) - AY @ Theta.T)
        F = tangent_project_reference(f.Y, f.Y @ (Theta.T @ Theta) - AtX @ Theta)
    return Theta, max(loss, 0.0), float(np.sum(E * E) + np.sum(F * F)), E, F


def sym_rgd_evaluate_reference(target: FactorizationTarget, f: SymFactors, gamma: float):
    """(Theta, expanded loss, grad norm^2, G) of one polar-rgd-sym evaluation."""
    AX = target.A @ f.X
    M = f.X.T @ AX
    Theta = M if gamma == 1.0 else (1.0 - gamma) * f.Theta + gamma * M
    loss = 0.5 * (target.a2 - 2.0 * float(np.sum(Theta * M)) + float(np.sum(Theta * Theta)))
    if gamma == 1.0:
        P = AX @ M
        G = f.X @ (f.X.T @ P) - P
    else:
        gX = f.X @ (Theta @ Theta.T + Theta.T @ Theta) - AX @ (Theta.T + Theta)
        G = tangent_project_reference(f.X, gX)
    return Theta, max(loss, 0.0), float(np.sum(G * G)), G


# ---------------------------------------------------------------------------
# matrix CSV written entry by entry


def matrix_csv_reference(W) -> bytes:
    """The matrix CSV layout of ``polarlab.io`` with each entry formatted on its own as repr(float(x))."""
    W = np.asarray(W, dtype=np.float64)
    lines = ["rows,cols", f"{W.shape[0]},{W.shape[1]}"]
    lines.extend(",".join(repr(float(x)) for x in row) for row in W)
    return ("\n".join(lines) + "\n").encode()
