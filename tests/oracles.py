"""Reference formulas the tests check the optimizers against.

The Theta refreshes and the projector-form and Euclidean gradients of the
three factorization losses, each written out directly. The optimizers in
``polarlab.factorization`` compute the same quantities in fused, expanded
forms; these are the plain versions. The alignment-gain predicate and the
loss-alignment bound after them are the theory that A3 checks along RGD
trajectories. The whitened task, replayed from the draws of
``make_whitened_task``, gives the direct loss that A8 checks is the
factored one plus a constant; the factored loss is the function the
adapter gradients are checked against by finite differences. The adapter
steps below run one out-of-place Adam per parameter, where
``polarlab.landing`` runs one in-place Adam over the packed parameters.

The allocating manifold kernels at the end (retraction, tangent projection,
Haar sampler and the RGD evaluations) are the plain-expression versions of
the in-place kernels in ``polarlab.stiefel`` and ``polarlab.factorization``,
which must reproduce them bit for bit. So must the bm-gd evaluation and
step, the landing field, both adapters' gradients and an adapter trace
row, whose references form every product with ``@`` in the library's
operation order. The tangency residual beside the retraction is the plain
||X^T D + D^T X||_F that its tangency check is held to. The polar factor
and the orthogonal complement are the textbook SVD and QR constructions. The
matrix CSV writer, which formats whole rows at once, must give the bytes
of the entry-by-entry formula at the end.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from polarlab.exceptions import RankDeficientError
from polarlab.factorization import BMFactors, FactorizationTarget, PolarFactors, SymFactors, factor_loss
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


def theta_update(target: FactorizationTarget, f: PolarFactors) -> np.ndarray:
    """Closed-form refresh Theta <- X^T A Y."""
    return f.X.T @ target.A @ f.Y


def theta_update_sym(target: FactorizationTarget, f: SymFactors) -> np.ndarray:
    return f.X.T @ target.A @ f.X


def riemannian_grads_asym(target: FactorizationTarget, f: PolarFactors) -> tuple[np.ndarray, np.ndarray]:
    """Projector-form gradients E = -(I - XX^T) A Y Theta^T, F = -(I - YY^T) A^T X Theta.

    These equal the Euclidean loss gradients (and are exactly tangent)
    when Theta has just been refreshed to X^T A Y.
    """
    T1 = (target.A @ f.Y) @ f.Theta.T
    E = f.X @ (f.X.T @ T1) - T1
    T2 = (target.A.T @ f.X) @ f.Theta
    F = f.Y @ (f.Y.T @ T2) - T2
    return E, F


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
# alignment monotonicity theory (A3)


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
    """Sufficient condition under which one RGD step cannot decrease
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

    The bound dominates the full squared residual at a refreshed state
    (Theta = X^T A Y), hence also the halved loss reported here.
    """
    phi = target.U.T @ f.X
    psi = target.V.T @ f.Y
    rho1 = target.r_a - float(np.sum(phi * phi))
    rho2 = target.r_a - float(np.sum(psi * psi))
    bound = 2.0 * float(target.sigma[0]) ** 2 * (rho1 + rho2)
    return factor_loss(target, f), bound


# ---------------------------------------------------------------------------
# the whitened task


def whitened_form(m: int, n: int, n_cols: int, r_a: int, rng: np.random.Generator, kappa: float = 10.0):
    """The whitened least-squares task behind ``make_whitened_task``, on the same draws:
    (target, W0, D, labels, c). D is n x n_cols with orthonormal rows, W0 has i.i.d.
    N(0, 1/n) entries and labels = (W0 + P) D for the planted P = ``target.A``, so that
    ||(W0 + DeltaW) D - labels||_F^2 = ||DeltaW - P||_F^2 + c, c zero up to rounding."""
    sigma = np.linspace(kappa, 1.0, r_a) / kappa
    D = np.linalg.qr(rng.standard_normal((n_cols, n)))[0].T
    W0 = (1.0 / np.sqrt(n)) * rng.standard_normal((m, n))
    U = sample_stiefel_uniform_reference(m, r_a, rng)
    V = sample_stiefel_uniform_reference(n, r_a, rng)
    target = FactorizationTarget(A=(U * sigma) @ V.T, U=U, V=V, sigma=sigma, kappa=float(kappa))
    labels = (W0 + target.A) @ D
    c = float(np.sum(labels * labels)) - float(np.sum((labels @ D.T) ** 2))
    return target, W0, D, labels, c


def whitened_task_loss(target: FactorizationTarget, delta_w) -> float:
    """||delta_w - A||_F^2, the task loss as the trainers report it, without c."""
    diff = delta_w - target.A
    return float(np.vdot(diff, diff))


def whitened_direct_loss(W0, D, labels, delta_w) -> float:
    """||(W0 + delta_w) D - labels||_F^2, the loss of the whitened form, which includes c."""
    resid = (W0 + delta_w) @ D - labels
    return float(np.sum(resid * resid))


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


def polar_directions_reference(task, state, cfg, grad_mode="landing") -> dict:
    """The directions a landing step of the polar adapter takes, by parameter, in fresh arrays."""
    G_X, G_Theta, G_Y, _ = whitened_task_grads(task, state)
    if grad_mode == "landing":
        dir_X, dir_Y = landing_field(state.X, G_X, cfg.lam), landing_field(state.Y, G_Y, cfg.lam)
    else:
        dir_X = G_X + cfg.lam * grad_distance_to_stiefel(state.X)
        dir_Y = G_Y + cfg.lam * grad_distance_to_stiefel(state.Y)
    return {"X": dir_X, "Theta": G_Theta, "Y": dir_Y}


def polar_step_reference(task, state, opts: dict, cfg, t: int, grad_mode="landing"):
    """One landing step of the polar adapter, each parameter through its own Adam."""
    directions = polar_directions_reference(task, state, cfg, grad_mode)
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


def tangency_residual_reference(X, D) -> float:
    """||X^T D + D^T X||_F, zero for a D tangent to St at X; a normal part X S, S symmetric, adds 2 S."""
    return float(np.linalg.norm(X.T @ D + D.T @ X))


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


def polar_rgd_evaluate_reference(target: FactorizationTarget, f: PolarFactors | SymFactors):
    """(Theta, expanded loss, grad norm^2, directions) of one polar-rgd evaluation, at Theta = X^T A Y.

    The directions are (E, F), or for a SymFactors state, Y tied to X, the
    one direction (E + F,), from A X in place of A^T X. Their projector forms
    (XX^T - I) A Y Theta^T and (YY^T - I) A^T X Theta are formed with
    X^T A Y = Theta as (X Theta - A Y) Theta^T and (Y Theta^T - A^T X) Theta,
    and tied as (X Theta - A X)(Theta^T + Theta).
    """
    tied = isinstance(f, SymFactors)
    X = f.X
    Y = X if tied else f.Y
    AY = target.A @ Y
    AtX = AY if tied else target.A.T @ X
    Theta = X.T @ AY
    loss = 0.5 * (target.a2 - 2.0 * float(np.sum(Theta * Theta)) + float(np.sum(Theta * Theta)))
    if tied:
        directions = ((X @ Theta - AY) @ (Theta.T + Theta),)
    else:
        directions = ((X @ Theta - AY) @ Theta.T, (Y @ Theta.T - AtX) @ Theta)
    return Theta, max(loss, 0.0), sum(float(np.sum(D * D)) for D in directions), directions


def bm_gd_evaluate_reference(target: FactorizationTarget, f: BMFactors):
    """(loss, G1, G2) of one bm-gd evaluation."""
    resid = f.Z1 @ f.Z2.T - target.A
    return 0.5 * float(np.vdot(resid, resid)), resid @ f.Z2, resid.T @ f.Z1


def bm_gd_step_reference(f: BMFactors, G1: np.ndarray, G2: np.ndarray, eta: float):
    """(Z1, Z2) after one bm-gd step."""
    return f.Z1 - eta * G1, f.Z2 - eta * G2


# ---------------------------------------------------------------------------
# adapter kernels in the library's operation order


def landing_field_reference(X, G, lam: float) -> np.ndarray:
    """G (A / 2) + X (4 lam (A - I) - (G^T X) / 2) with A = X^T X, a fresh array per term."""
    A = X.T @ X
    return G @ (0.5 * A) + X @ ((4.0 * lam) * (A - np.eye(A.shape[0])) - 0.5 * (G.T @ X))


def whitened_task_grads_reference(task, state):
    """(G_X, G_Theta, G_Y, loss) of the factored task loss at a polar adapter state."""
    s = state.scale_alpha / state.r
    XT = state.X @ state.Theta
    diff = (XT @ state.Y.T) * s - task.A
    loss = float(np.vdot(diff, diff))
    G = 2.0 * diff
    return (G @ (state.Y @ state.Theta.T)) * s, (state.X.T @ G @ state.Y) * s, (G.T @ XT) * s, loss


def lora_grads_reference(task, state):
    """(G_Z1, G_Z2, loss) of the factored task loss at a LoRA state."""
    s = state.scale_alpha / state.r
    diff = (state.Z1 @ state.Z2.T) * s - task.A
    loss = float(np.vdot(diff, diff))
    G = 2.0 * diff
    return (G @ state.Z2) * s, (G.T @ state.Z1) * s, loss


def adapter_columns_reference(state) -> dict:
    """n_x, n_y and the stable rank of DeltaW as an adapter trace row has them: each factor's Gram
    matrix G1, G2 formed once, B = L^T (C G2 C^T) L with G1 = L L^T and C = Theta (the polar adapter)
    or I (LoRA), and trace(B) / lambda_max(B); where Cholesky fails on G1, B is DeltaW's smaller Gram
    matrix and trace(B) = ||DeltaW||_F^2."""
    F1, F2 = (getattr(state, name) for name in state.factors)
    G1, G2 = F1.T @ F1, F2.T @ F2
    try:
        L = np.linalg.cholesky(G1)
    except np.linalg.LinAlgError:
        s = state.scale_alpha / state.r
        W = s * ((state.X @ state.Theta) @ state.Y.T) if state.kind == "polar-adapter" else s * (state.Z1 @ state.Z2.T)
        B = W.T @ W if W.shape[0] >= W.shape[1] else W @ W.T
        trace = float(np.vdot(W, W))
    else:
        inner = (state.Theta @ G2) @ state.Theta.T if state.kind == "polar-adapter" else G2
        B = (L.T @ inner) @ L
        trace = float(np.trace(B))
    gaps = [G - np.eye(G.shape[0]) for G in (G1, G2)]
    return {
        "n_x": float(np.sum(gaps[0] * gaps[0])),
        "n_y": float(np.sum(gaps[1] * gaps[1])),
        "stable_rank": trace / float(np.linalg.eigvalsh(B)[-1]),
    }


# ---------------------------------------------------------------------------
# matrix CSV written entry by entry


def matrix_csv_reference(W) -> bytes:
    """The matrix CSV layout of ``polarlab.io`` with each entry formatted on its own as repr(float(x))."""
    W = np.asarray(W, dtype=np.float64)
    lines = ["rows,cols", f"{W.shape[0]},{W.shape[1]}"]
    lines.extend(",".join(repr(float(x)) for x in row) for row in W)
    return ("\n".join(lines) + "\n").encode()
