"""Oracle and property tests for the factorization testbed.

Gradients are checked against central finite differences; the closed-form
Theta refresh is checked against a brute-force least-squares solve; the
runners are checked for determinism, recording cadence and crossing
semantics.
"""

from dataclasses import replace

import numpy as np
import pytest

from polarlab import factorization as fx
from polarlab.config import RGDConfig
from polarlab.exceptions import DivergenceError
from polarlab.factorization import (
    BMFactors,
    FactorizationTarget,
    PolarFactors,
    SymFactors,
    init_bm_factors,
    init_polar_factors,
    init_sym_factors,
    factor_loss,
    make_sym_target,
    make_target,
    make_whitened_task,
    run_bm_gd,
    run_polar_rgd,
    run_sym_rgd,
)
from polarlab.runner import advance
from polarlab.stiefel import polar_retract, stiefel_error

from oracles import (
    alignment_gain_predicate,
    euclid_grad_sym,
    euclid_grad_theta,
    euclid_grads_asym,
    euclid_grads_bm,
    loss_alignment_bound,
    orthogonal_complement,
    riemannian_grads_asym,
    theta_update,
    theta_update_sym,
)

SEEDS = [0, 1, 2, 3]


def _target(seed, m=6, n=5, r_a=2, kappa=2.0, normalize=False):
    return make_target(m, n, r_a, kappa, np.random.default_rng(seed), normalize=normalize)


def _refreshed(target, f):
    return PolarFactors(X=f.X, Theta=theta_update(target, f), Y=f.Y)


def _fd_grad(fun, W, h=1e-6):
    G = np.zeros_like(W)
    for i in range(W.shape[0]):
        for j in range(W.shape[1]):
            Wp, Wm = W.copy(), W.copy()
            Wp[i, j] += h
            Wm[i, j] -= h
            G[i, j] = (fun(Wp) - fun(Wm)) / (2 * h)
    return G


def _rel_err(A, B):
    return np.linalg.norm(A - B) / max(np.linalg.norm(B), 1e-30)


# ---------------------------------------------------------------------------
# targets


def test_spectrum_is_evenly_spaced_on_1_kappa():
    t = make_target(50, 50, 4, 10.0, np.random.default_rng(0))
    assert np.array_equal(t.sigma, np.array([10.0, 7.0, 4.0, 1.0]))


def test_spectrum_normalized_matches_reference_values():
    t = make_target(50, 50, 4, 10.0, np.random.default_rng(0), normalize=True)
    assert np.allclose(t.sigma, [1.0, 0.7, 0.4, 0.1], atol=1e-15)


def test_spectrum_condition_number_is_exact():
    t = make_target(50, 40, 4, 100.0, np.random.default_rng(1))
    assert t.sigma[0] / t.sigma[-1] == pytest.approx(100.0)


def test_rank_one_target_requires_kappa_one():
    t = make_target(4, 4, 1, 1.0, np.random.default_rng(2))
    assert np.array_equal(t.sigma, np.ones(1))
    assert np.linalg.matrix_rank(t.A) == 1
    with pytest.raises(ValueError, match="kappa"):
        make_target(4, 4, 1, 2.0, np.random.default_rng(2))


@pytest.mark.parametrize("seed", SEEDS)
def test_target_reconstructs_from_factors(seed):
    t = _target(seed)
    assert stiefel_error(t.U) <= 1e-10
    assert stiefel_error(t.V) <= 1e-10
    assert np.allclose((t.U * t.sigma) @ t.V.T, t.A, atol=1e-12)


def test_target_keeps_a_wide_shape():
    t = make_target(5, 8, 2, 2.0, np.random.default_rng(0))
    assert t.A.shape == (5, 8)


def test_make_target_validates():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="r_a"):
        make_target(6, 6, 4, 2.0, rng)
    with pytest.raises(ValueError, match="kappa"):
        make_target(6, 6, 2, 0.5, rng)


@pytest.mark.parametrize("kappa", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("make", [make_target, make_sym_target])
def test_target_rejects_non_finite_kappa_before_drawing(make, kappa):
    rng = np.random.default_rng(0)
    shape = (6, 6, 2) if make is make_target else (6, 2)
    with pytest.raises(ValueError, match=f"^kappa must be finite, got {kappa}$"):
        make(*shape, kappa, rng)
    assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state


@pytest.mark.parametrize("seed", SEEDS)
def test_sym_target_is_symmetric_psd(seed):
    t = make_sym_target(8, 3, 4.0, np.random.default_rng(seed))
    assert np.array_equal(t.A, t.A.T)
    assert t.V is t.U
    w = np.linalg.eigvalsh(t.A)
    assert w.min() >= -1e-12
    nonzero = np.sort(w)[-3:]
    assert np.allclose(np.sort(t.sigma), nonzero, atol=1e-10)


# ---------------------------------------------------------------------------
# initialization


def test_init_polar_theta_zero_and_feasible():
    t = _target(0)
    f = init_polar_factors(t, 4, np.random.default_rng(0))
    assert np.array_equal(f.Theta, np.zeros((4, 4)))
    assert stiefel_error(f.X) <= 1e-10
    assert stiefel_error(f.Y) <= 1e-10
    assert f.r == 4


def test_init_requires_overparameterization():
    t = _target(0, r_a=2)
    with pytest.raises(ValueError):
        init_polar_factors(t, 2, np.random.default_rng(0))
    with pytest.raises(ValueError):
        init_bm_factors(t, 2, np.random.default_rng(0))
    # a wide target, m < n, as make_whitened_task leaves it: r is bounded by m, not by n
    wide = make_whitened_task(16, 32, 64, 2, np.random.default_rng(0))
    assert (wide.m, wide.n) == (16, 32)
    for init in (init_polar_factors, init_bm_factors):
        with pytest.raises(ValueError, match=r"^need r_a < r <= min\(m, n\), got r=20, r_a=2, m=16, n=32$"):
            init(wide, 20, np.random.default_rng(0))
        assert init(wide, 16, np.random.default_rng(0)).r == 16


def test_init_bm_scale():
    t = make_target(64, 64, 2, 2.0, np.random.default_rng(0))
    f = init_bm_factors(t, 40, np.random.default_rng(1))
    # empirical std over 64*40 entries should sit near 1/8
    assert f.Z1.std() == pytest.approx(1.0 / 8.0, rel=0.1)
    assert f.Z2.std() == pytest.approx(1.0 / 8.0, rel=0.1)


# ---------------------------------------------------------------------------
# losses


@pytest.mark.parametrize("seed", SEEDS)
def test_loss_polar_matches_brute_force(seed):
    t = _target(seed)
    f = init_polar_factors(t, 3, np.random.default_rng(seed + 10))
    f = PolarFactors(X=f.X, Theta=np.random.default_rng(seed).standard_normal((3, 3)), Y=f.Y)
    resid = f.X @ f.Theta @ f.Y.T - t.A
    brute = 0.5 * sum(resid[i, j] ** 2 for i in range(t.m) for j in range(t.n))
    assert factor_loss(t, f) == pytest.approx(brute, rel=1e-12)


def test_loss_at_theta_zero_is_half_energy():
    t = _target(3, kappa=5.0)
    f = init_polar_factors(t, 3, np.random.default_rng(0))
    assert factor_loss(t, f) == pytest.approx(0.5 * np.sum(t.sigma**2), rel=1e-12)


def test_loss_zero_at_exact_factorization():
    t = _target(1, m=6, n=6, r_a=2)
    r = 4
    X = np.hstack([t.U, orthogonal_complement(t.U)[:, : r - 2]])
    Y = np.hstack([t.V, orthogonal_complement(t.V)[:, : r - 2]])
    Theta = np.zeros((r, r))
    Theta[:2, :2] = np.diag(t.sigma)
    assert factor_loss(t, PolarFactors(X=X, Theta=Theta, Y=Y)) <= 1e-20


def test_loss_bm_and_sym_match_brute_force():
    t = _target(2)
    fb = init_bm_factors(t, 3, np.random.default_rng(5))
    resid = fb.Z1 @ fb.Z2.T - t.A
    assert factor_loss(t, fb) == pytest.approx(0.5 * np.sum(resid**2), rel=1e-12)
    ts = make_sym_target(6, 2, 3.0, np.random.default_rng(0))
    fs = init_sym_factors(ts, 3, np.random.default_rng(1))
    fs = SymFactors(X=fs.X, Theta=np.random.default_rng(2).standard_normal((3, 3)))
    resid = fs.X @ fs.Theta @ fs.X.T - ts.A
    assert factor_loss(ts, fs) == pytest.approx(0.5 * np.sum(resid**2), rel=1e-12)


# ---------------------------------------------------------------------------
# Theta refresh


def test_theta_update_gamma_one_is_projection():
    t = _target(0)
    f = init_polar_factors(t, 3, np.random.default_rng(3))
    assert np.allclose(theta_update(t, f), f.X.T @ t.A @ f.Y, atol=1e-15)


@pytest.mark.parametrize("seed", SEEDS)
def test_theta_gamma_one_solves_least_squares(seed):
    # argmin_Theta ||X Theta Y^T - A|| via vec(X Theta Y^T) = (Y kron X) vec(Theta)
    t = _target(seed)
    f = init_polar_factors(t, 3, np.random.default_rng(seed + 20))
    K = np.kron(f.Y, f.X)
    vec_opt = np.linalg.lstsq(K, t.A.flatten(order="F"), rcond=None)[0]
    assert np.allclose(theta_update(t, f), vec_opt.reshape((3, 3), order="F"), atol=1e-10)


def test_theta_aligned_recovers_spectrum():
    t = _target(4, m=6, n=6, r_a=2)
    X = np.hstack([t.U, orthogonal_complement(t.U)[:, :1]])
    Y = np.hstack([t.V, orthogonal_complement(t.V)[:, :1]])
    Theta = theta_update(t, PolarFactors(X=X, Theta=np.zeros((3, 3)), Y=Y))
    expect = np.zeros((3, 3))
    expect[:2, :2] = np.diag(t.sigma)
    assert np.allclose(Theta, expect, atol=1e-12)


def test_theta_update_sym():
    t = make_sym_target(6, 2, 3.0, np.random.default_rng(0))
    f = init_sym_factors(t, 3, np.random.default_rng(1))
    assert np.allclose(theta_update_sym(t, f), f.X.T @ t.A @ f.X, atol=1e-15)


# ---------------------------------------------------------------------------
# gradients against finite differences


@pytest.mark.parametrize("seed", SEEDS)
def test_riemannian_grads_match_fd_at_refreshed_theta(seed):
    t = _target(seed)
    f = _refreshed(t, init_polar_factors(t, 3, np.random.default_rng(seed + 30)))
    E, F = riemannian_grads_asym(t, f)
    fd_x = _fd_grad(lambda W: factor_loss(t, PolarFactors(X=W, Theta=f.Theta, Y=f.Y)), f.X)
    fd_y = _fd_grad(lambda W: factor_loss(t, PolarFactors(X=f.X, Theta=f.Theta, Y=W)), f.Y)
    assert _rel_err(E, fd_x) <= 1e-5
    assert _rel_err(F, fd_y) <= 1e-5


@pytest.mark.parametrize("seed", SEEDS)
def test_riemannian_grads_are_tangent_at_refreshed_theta(seed):
    t = _target(seed)
    f = _refreshed(t, init_polar_factors(t, 3, np.random.default_rng(seed + 30)))
    E, F = riemannian_grads_asym(t, f)
    assert np.linalg.norm(f.X.T @ E + E.T @ f.X) <= 1e-8
    assert np.linalg.norm(f.Y.T @ F + F.T @ f.Y) <= 1e-8


def test_riemannian_equals_euclid_at_refreshed_theta():
    t = _target(5)
    f = _refreshed(t, init_polar_factors(t, 3, np.random.default_rng(11)))
    E, F = riemannian_grads_asym(t, f)
    gX, gY = euclid_grads_asym(t, f)
    assert np.allclose(E, gX, atol=1e-12)
    assert np.allclose(F, gY, atol=1e-12)


def test_gradients_vanish_at_optimum():
    t = _target(1, m=6, n=6, r_a=2)
    X = np.hstack([t.U, orthogonal_complement(t.U)[:, :1]])
    Y = np.hstack([t.V, orthogonal_complement(t.V)[:, :1]])
    f = _refreshed(t, PolarFactors(X=X, Theta=np.zeros((3, 3)), Y=Y))
    E, F = riemannian_grads_asym(t, f)
    assert np.linalg.norm(E) <= 1e-12
    assert np.linalg.norm(F) <= 1e-12


def test_gradients_vanish_when_y_orthogonal_to_target():
    t = _target(2, m=6, n=6, r_a=2)
    Y = orthogonal_complement(t.V)[:, :3]
    X = init_polar_factors(t, 3, np.random.default_rng(0)).X
    f = _refreshed(t, PolarFactors(X=X, Theta=np.zeros((3, 3)), Y=Y))
    assert np.linalg.norm(f.Theta) <= 1e-12
    E, F = riemannian_grads_asym(t, f)
    assert np.linalg.norm(E) <= 1e-12
    assert np.linalg.norm(F) <= 1e-12


@pytest.mark.parametrize("seed", SEEDS)
def test_euclid_grad_theta_matches_fd(seed):
    t = _target(seed)
    rng = np.random.default_rng(seed + 40)
    f = init_polar_factors(t, 3, rng)
    f = PolarFactors(X=f.X, Theta=rng.standard_normal((3, 3)), Y=f.Y)
    fd = _fd_grad(lambda T: factor_loss(t, PolarFactors(X=f.X, Theta=T, Y=f.Y)), f.Theta)
    assert _rel_err(euclid_grad_theta(t, f), fd) <= 1e-5


@pytest.mark.parametrize("seed", SEEDS)
def test_bm_grads_match_fd(seed):
    t = make_target(5, 4, 1, 1.0, np.random.default_rng(seed))
    f = init_bm_factors(t, 3, np.random.default_rng(seed + 50))
    G1, G2 = euclid_grads_bm(t, f)
    fd1 = _fd_grad(lambda Z: factor_loss(t, BMFactors(Z1=Z, Z2=f.Z2)), f.Z1)
    fd2 = _fd_grad(lambda Z: factor_loss(t, BMFactors(Z1=f.Z1, Z2=Z)), f.Z2)
    assert _rel_err(G1, fd1) <= 1e-5
    assert _rel_err(G2, fd2) <= 1e-5


@pytest.mark.parametrize("seed", SEEDS)
def test_sym_grads_match_fd_and_riemannian_relation(seed):
    t = make_sym_target(7, 2, 3.0, np.random.default_rng(seed))
    f = init_sym_factors(t, 3, np.random.default_rng(seed + 60))
    f = SymFactors(X=f.X, Theta=theta_update_sym(t, f))
    g = euclid_grad_sym(t, f)
    fd = _fd_grad(lambda W: factor_loss(t, SymFactors(X=W, Theta=f.Theta)), f.X)
    assert _rel_err(g, fd) <= 1e-5
    # at a refreshed symmetric Theta the Euclidean gradient is E + F, the
    # projector-form directions with Y tied to X, and it is tangent
    E, F = riemannian_grads_asym(t, PolarFactors(X=f.X, Theta=f.Theta, Y=f.X))
    assert np.allclose(g, E + F, atol=1e-10)
    assert np.linalg.norm(f.X.T @ g + g.T @ f.X) <= 1e-8


@pytest.mark.parametrize("steps", [0, 3])
@pytest.mark.parametrize("tied", [False, True], ids=["polar-rgd", "polar-rgd-sym"])
def test_rgd_direction_is_the_riemannian_gradient_of_its_loss(tied, steps):
    # for the Riemannian gradient D of the loss in one factor, the derivative of the loss along D is <D, D>,
    # at the initial state (Theta = 0 on input) and a few steps into the run
    rng = np.random.default_rng(0)
    t = make_sym_target(50, 4, 10.0, rng) if tied else make_target(50, 50, 4, 10.0, rng)
    f = (init_sym_factors if tied else init_polar_factors)(t, 20, np.random.default_rng(1))
    method = fx._PolarRGD(t, 1e-3, tied=tied)
    for it in range(steps):
        f = advance(method, f, it)[0]
    state, _, ev = method.evaluate(f)
    h = 1e-6
    for name, D in zip(("X",) if tied else ("X", "Y"), ev):
        W = getattr(state, name)
        slope = factor_loss(t, replace(state, **{name: W + h * D})) - factor_loss(t, replace(state, **{name: W - h * D}))
        assert slope / (2 * h) / float(np.sum(D * D)) == pytest.approx(1.0, rel=1e-6), name


# ---------------------------------------------------------------------------
# single steps


def test_step_noop_at_zero_gradient():
    t = _target(1, m=6, n=6, r_a=2)
    X = np.hstack([t.U, orthogonal_complement(t.U)[:, :1]])
    Y = np.hstack([t.V, orthogonal_complement(t.V)[:, :1]])
    f = advance(fx._PolarRGD(t, 1e-3), PolarFactors(X=X, Theta=np.zeros((3, 3)), Y=Y), 0)[0]
    assert np.allclose(f.X, X, atol=1e-12)
    assert np.allclose(f.Y, Y, atol=1e-12)
    assert factor_loss(t, f) <= 1e-18


@pytest.mark.parametrize("m, n", [(6, 6), (7, 5)])
def test_step_decreases_loss_and_stays_feasible(m, n):
    t = _target(6, m=m, n=n, r_a=2)
    f = _refreshed(t, init_polar_factors(t, 3, np.random.default_rng(9)))
    before = factor_loss(t, f)
    f2 = advance(fx._PolarRGD(t, 1e-3), f, 0)[0]
    assert stiefel_error(f2.X) <= 1e-9
    assert stiefel_error(f2.Y) <= 1e-9
    assert factor_loss(t, PolarFactors(X=f2.X, Theta=f.Theta, Y=f2.Y)) <= before


@pytest.mark.parametrize("tied", [False, True], ids=["polar-rgd", "polar-rgd-sym"])
def test_rgd_evaluate_ignores_the_incoming_theta(tied):
    # the refresh is closed form, Theta = X^T A Y: the Theta a state carries in changes no output bit
    t = make_sym_target(8, 2, 3.0, np.random.default_rng(5)) if tied else _target(5, m=8, n=6)
    f = (init_sym_factors if tied else init_polar_factors)(t, 3, np.random.default_rng(6))
    method = fx._PolarRGD(t, 1e-2, tied=tied)
    state, loss, ev = method.evaluate(f)
    state2, loss2, ev2 = method.evaluate(replace(f, Theta=np.random.default_rng(7).standard_normal((3, 3))))
    assert np.array_equal(state2.Theta, state.Theta) and loss2 == loss
    assert len(ev2) == len(ev) and all(np.array_equal(D2, D) for D2, D in zip(ev2, ev))


def test_gamma_paths_coincide_at_one():
    # the shipped projector forms are the tangent projections of the Euclidean gradients
    t = _target(7)
    f = _refreshed(t, init_polar_factors(t, 3, np.random.default_rng(13)))
    E, F = riemannian_grads_asym(t, f)
    gX, gY = euclid_grads_asym(t, f)
    from polarlab.stiefel import tangent_project

    assert np.allclose(E, tangent_project(f.X, gX), atol=1e-12)
    assert np.allclose(F, tangent_project(f.Y, gY), atol=1e-12)


def test_bm_step_hand_oracle_simultaneous():
    t = FactorizationTarget(
        A=np.array([[2.0]]), U=np.ones((1, 1)), V=np.ones((1, 1)), sigma=np.ones(1), kappa=1.0
    )
    f = advance(fx._BMGD(t, 0.1), BMFactors(Z1=np.array([[1.0]]), Z2=np.array([[1.0]])), 0)[0]
    # resid = -1; both factors move from the OLD iterates: 1 - 0.1*(-1)*1
    assert f.Z1[0, 0] == pytest.approx(1.1)
    assert f.Z2[0, 0] == pytest.approx(1.1)


def test_bm_step_noop_at_solution():
    t = _target(1, m=6, n=6, r_a=2)
    Z1 = t.U * t.sigma
    Z2 = t.V.copy()
    f = advance(fx._BMGD(t, 0.1), BMFactors(Z1=np.c_[Z1, np.zeros(6)], Z2=np.c_[Z2, np.zeros(6)]), 0)[0]
    assert np.allclose(f.Z1[:, :2], Z1, atol=1e-14)
    assert np.allclose(f.Z2[:, :2], Z2, atol=1e-14)


@pytest.mark.parametrize("r", [3, 5])
def test_tied_step_is_the_untied_step_at_twice_eta(r):
    # the symmetric target is a FactorizationTarget with V = U. From Y = X and Theta = 0 the refreshed
    # Theta is symmetric up to rounding, so E = F and the tied direction E + F is 2 E
    ts = make_sym_target(8, 2, 3.0, np.random.default_rng(3))
    X0 = init_sym_factors(ts, r, np.random.default_rng(4)).X
    fs = advance(fx._PolarRGD(ts, 1e-2, tied=True), SymFactors(X=X0, Theta=np.zeros((r, r))), 0)[0]
    fa = advance(fx._PolarRGD(ts, 2e-2), PolarFactors(X=X0, Theta=np.zeros((r, r)), Y=X0.copy()), 0)[0]
    assert np.abs(fs.X - fa.X).max() <= 1e-12 and np.abs(fs.X - fa.Y).max() <= 1e-12
    assert np.abs(fs.Theta - fa.Theta).max() <= 1e-12


def test_run_sym_rgd_rejects_an_asymmetric_target():
    # the tied step reads A X for A^T X, so an A one ulp off symmetric is refused before any step
    ts = make_sym_target(8, 2, 3.0, np.random.default_rng(3))
    A = ts.A.copy()
    A[0, 1] = np.nextafter(A[0, 1], np.inf)
    with pytest.raises(ValueError, match=r"exactly symmetric A, got max \|A - A\^T\| = [0-9.]+e-[0-9]+$"):
        run_sym_rgd(replace(ts, A=A), 4, RGDConfig(max_iters=1))


# ---------------------------------------------------------------------------
# alignment diagnostics


def test_alignment_gain_predicate_trivial_states():
    t = _target(1, m=6, n=6, r_a=2)
    X = np.hstack([t.U, orthogonal_complement(t.U)[:, :1]])
    Y = np.hstack([t.V, orthogonal_complement(t.V)[:, :1]])
    rep = alignment_gain_predicate(t, PolarFactors(X=X, Theta=np.zeros((3, 3)), Y=Y), eta=0.1)
    # perfect alignment: beta = 0 so both sides vanish up to rounding
    assert abs(rep.lhs_x) <= 1e-12 and abs(rep.rhs_x) <= 1e-12
    assert abs(rep.lhs_y) <= 1e-12 and abs(rep.rhs_y) <= 1e-12
    X_perp = orthogonal_complement(t.U)[:, :3]
    Y_perp = orthogonal_complement(t.V)[:, :3]
    rep = alignment_gain_predicate(t, PolarFactors(X=X_perp, Theta=np.zeros((3, 3)), Y=Y_perp), eta=0.1)
    # total misalignment: the gain factors are zero on both sides as well
    assert abs(rep.lhs_x) <= 1e-12 and abs(rep.rhs_x) <= 1e-12
    assert abs(rep.lhs_y) <= 1e-12 and abs(rep.rhs_y) <= 1e-12


@pytest.mark.parametrize("seed", range(10))
def test_predicate_implies_alignment_trace_gain(seed):
    rng = np.random.default_rng(seed)
    t = make_target(8, 6, 2, 2.0, rng, normalize=True)
    f = init_polar_factors(t, 4, rng)
    eta, method = 0.1, fx._PolarRGD(t, 0.1)
    for it in range(20):
        rep = alignment_gain_predicate(t, f, eta)
        tr_phi = np.sum((t.U.T @ f.X) ** 2)
        tr_psi = np.sum((t.V.T @ f.Y) ** 2)
        f = advance(method, f, it)[0]
        if rep.holds_x:
            assert np.sum((t.U.T @ f.X) ** 2) >= tr_phi - 1e-10
        if rep.holds_y:
            assert np.sum((t.V.T @ f.Y) ** 2) >= tr_psi - 1e-10


@pytest.mark.parametrize("seed", range(6))
def test_loss_alignment_bound_holds_on_trajectory(seed):
    rng = np.random.default_rng(seed)
    t = make_target(8, 6, 2, 3.0, rng, normalize=True)
    f, method = init_polar_factors(t, 3, rng), fx._PolarRGD(t, 0.1)
    for it in range(15):
        probe = _refreshed(t, f)
        loss, bound = loss_alignment_bound(t, probe)
        assert 2.0 * loss <= bound + 1e-12
        f = advance(method, f, it)[0]


def test_loss_alignment_bound_scales_with_sigma1():
    t = _target(3, kappa=4.0)  # sigma_1 = 4
    f = _refreshed(t, init_polar_factors(t, 3, np.random.default_rng(8)))
    loss, bound = loss_alignment_bound(t, f)
    phi = t.U.T @ f.X
    psi = t.V.T @ f.Y
    rho = 2 * t.r_a - np.sum(phi**2) - np.sum(psi**2)
    assert bound == pytest.approx(2.0 * 16.0 * rho, rel=1e-12)
    assert 2.0 * loss <= bound


# ---------------------------------------------------------------------------
# runners


def test_run_polar_converges_on_easy_target():
    t = make_target(12, 12, 2, 2.0, np.random.default_rng(0))
    tr, f = run_polar_rgd(t, 5, RGDConfig(eta=0.05, seed=1, max_iters=20000, loss_threshold=1e-10, record_every=100))
    assert tr.metadata["converged"] is True
    assert tr.final_loss <= 1e-10
    assert factor_loss(t, f) == pytest.approx(tr.final_loss, rel=1e-6, abs=1e-14)
    assert stiefel_error(f.X) <= 1e-8
    assert stiefel_error(f.Y) <= 1e-8


def test_run_polar_is_deterministic():
    t = make_target(10, 8, 2, 3.0, np.random.default_rng(5))
    tr1, f1 = run_polar_rgd(t, 4, RGDConfig(eta=1e-2, seed=7, max_iters=200, loss_threshold=0.0, record_every=50))
    tr2, f2 = run_polar_rgd(t, 4, RGDConfig(eta=1e-2, seed=7, max_iters=200, loss_threshold=0.0, record_every=50))
    assert tr1.columns["loss"] == tr2.columns["loss"]
    assert tr1.columns["iter"] == tr2.columns["iter"]
    assert np.array_equal(f1.X, f2.X)
    assert np.array_equal(f1.Y, f2.Y)


def test_run_polar_recording_cadence_and_budget_endpoint():
    t = make_target(10, 8, 2, 3.0, np.random.default_rng(5))
    tr, f = run_polar_rgd(t, 4, RGDConfig(eta=1e-2, seed=7, max_iters=200, loss_threshold=0.0, record_every=50))
    assert tr.columns["iter"] == [0, 50, 100, 150, 200]
    assert tr.metadata["converged"] is False
    assert tr.metadata["iterations"] == 200
    # returned factors are the recorded endpoint state
    assert factor_loss(t, f) == pytest.approx(tr.final_loss, rel=1e-10)


def test_run_polar_crossing_iteration_is_exact():
    t = make_target(10, 8, 2, 2.0, np.random.default_rng(2))
    tr, _ = run_polar_rgd(t, 4, RGDConfig(eta=0.05, seed=3, max_iters=50000, loss_threshold=1e-6, record_every=1000))
    k = tr.metadata["iterations"]
    assert tr.metadata["converged"] is True
    assert tr.columns["iter"][-1] == k
    # the previous iteration must still be above threshold
    tr2, _ = run_polar_rgd(t, 4, RGDConfig(eta=0.05, seed=3, max_iters=k, loss_threshold=0.0, record_every=k))
    assert tr2.columns["loss"][-1] <= 1e-6  # iterate k as recorded by the run above
    tr3, _ = run_polar_rgd(t, 4, RGDConfig(eta=0.05, seed=3, max_iters=k - 1, loss_threshold=0.0, record_every=k))
    assert tr3.columns["loss"][-1] > 1e-6


def test_run_traces_have_alignment_columns():
    t = make_target(10, 8, 2, 3.0, np.random.default_rng(5))
    trp, _ = run_polar_rgd(t, 4, RGDConfig(eta=1e-2, seed=7, max_iters=100, loss_threshold=0.0, record_every=50))
    trb, _ = run_bm_gd(t, 4, RGDConfig(eta=1e-2, seed=7, max_iters=100, loss_threshold=0.0, record_every=50))
    for tr in (trp, trb):
        assert all(0.0 <= v <= t.r_a + 1e-9 for v in tr.columns["trace_phi"])
        assert all(0.0 <= v <= t.r_a + 1e-9 for v in tr.columns["trace_psi"])
        assert all(v >= 0.0 for v in tr.columns["grad_norm"])
    ts = make_sym_target(10, 2, 3.0, np.random.default_rng(5))
    trs, _ = run_sym_rgd(ts, 4, RGDConfig(eta=1e-2, seed=7, max_iters=100, loss_threshold=0.0, record_every=50))
    assert all(0.0 <= v <= ts.r_a + 1e-9 for v in trs.columns["trace_phi"])
    assert all(np.isnan(v) for v in trs.columns["trace_psi"])


def test_runners_fit_the_adapter_target():
    # the adapter task is a factorization target, which both asymmetric runners take as it is
    t = make_whitened_task(64, 32, 128, 4, np.random.default_rng(1000))
    cfg = RGDConfig(eta=0.5, seed=0, max_iters=200, loss_threshold=0.0, record_every=50)
    for runner in (run_polar_rgd, run_bm_gd):
        tr, f = runner(t, 24, cfg)
        assert tr.metadata["m"] == 64 and tr.metadata["n"] == 32 and tr.metadata["r_A"] == 4
        for name in ("trace_phi", "sigma_min_phi", "trace_psi", "sigma_min_psi", "grad_norm"):
            assert all(np.isfinite(v) for v in tr.columns[name]), (runner.__name__, name)
        assert tr.final_loss < tr.columns["loss"][0]


def test_run_bm_converges_on_easy_target():
    t = make_target(12, 12, 2, 1.5, np.random.default_rng(1))
    tr, f = run_bm_gd(t, 4, RGDConfig(eta=0.05, seed=2, max_iters=50000, loss_threshold=1e-10, record_every=500))
    assert tr.metadata["converged"] is True
    assert factor_loss(t, f) <= 1e-10


def test_run_bm_divergence_raises():
    t = make_target(10, 10, 2, 2.0, np.random.default_rng(3))
    with pytest.raises(DivergenceError):
        run_bm_gd(t, 4, RGDConfig(eta=50.0, seed=0, max_iters=10000, loss_threshold=1e-8, record_every=100))


def test_run_sym_converges_and_equals_stepper():
    ts = make_sym_target(10, 2, 2.0, np.random.default_rng(4))
    tr, f = run_sym_rgd(ts, 4, RGDConfig(eta=0.05, seed=5, max_iters=20000, loss_threshold=1e-10, record_every=100))
    assert tr.metadata["converged"] is True
    assert factor_loss(ts, f) <= 2e-10
    assert stiefel_error(f.X) <= 1e-8


def _count_retractions(monkeypatch):
    calls = []

    def counting(X, D, eta):
        calls.append(eta)
        return polar_retract(X, D, eta)

    monkeypatch.setattr(fx, "polar_retract", counting)
    return calls


def test_runners_retract_only_steps_they_take(monkeypatch):
    # a budget of N steps retracts each factor N times: the final evaluation
    # and the iteration that hits the threshold take no step
    t = make_target(10, 8, 2, 2.0, np.random.default_rng(2))
    ts = make_sym_target(10, 2, 2.0, np.random.default_rng(4))
    calls = _count_retractions(monkeypatch)
    run_polar_rgd(t, 4, RGDConfig(eta=0.05, seed=3, max_iters=37, loss_threshold=0.0, record_every=10))
    assert len(calls) == 2 * 37
    calls.clear()
    tr, _ = run_polar_rgd(t, 4, RGDConfig(eta=0.05, seed=3, max_iters=50000, loss_threshold=1e-6))
    assert tr.metadata["converged"] is True
    assert len(calls) == 2 * tr.metadata["iterations"]
    calls.clear()
    run_sym_rgd(ts, 4, RGDConfig(eta=0.05, seed=5, max_iters=37, loss_threshold=0.0, record_every=10))
    assert len(calls) == 37
    calls.clear()
    tr, _ = run_sym_rgd(ts, 4, RGDConfig(eta=0.05, seed=5, max_iters=50000, loss_threshold=1e-6))
    assert tr.metadata["converged"] is True
    assert len(calls) == tr.metadata["iterations"]


def test_target_norms_are_cached_and_exact():
    t = _target(0)
    ts = make_sym_target(8, 2, 3.0, np.random.default_rng(1))
    assert t.a2 == float(np.sum(t.A * t.A))
    assert ts.a2 == float(np.sum(ts.A * ts.A))
    assert t.a2 is t.a2 and ts.a2 is ts.a2


def test_misalignment_sigma_min_nondecreasing_on_short_run():
    # r_A <= m/2 regime: smallest alignment singular value cannot shrink
    t = make_target(8, 6, 2, 2.0, np.random.default_rng(6), normalize=True)
    tr, _ = run_polar_rgd(t, 3, RGDConfig(eta=0.1, seed=8, max_iters=300, loss_threshold=0.0, record_every=10))
    s_phi = np.array(tr.columns["sigma_min_phi"])
    s_psi = np.array(tr.columns["sigma_min_psi"])
    assert (np.diff(s_phi) >= -1e-9).all()
    assert (np.diff(s_psi) >= -1e-9).all()
