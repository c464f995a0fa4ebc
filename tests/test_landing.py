"""Tests for the landing-method adapter trainer and its whitened task.

The Adam transform is pinned to an independent scalar recursion; the
landing field is checked against the materialized-skew reference and
finite differences; the training steps are checked for the single
backward pass contract and the runners for determinism.
"""

import math
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest

from polarlab import io
from polarlab.config import LandingConfig
from polarlab.exceptions import DivergenceError
from polarlab.factorization import BMFactors, PolarFactors, make_whitened_task
from polarlab.landing import (
    _adapter_columns,
    _Lora,
    _PolarLanding,
    ADAM_BETA1,
    ADAPTER_ALPHA,
    AdamState,
    AdapterState,
    LoraState,
    adam_transform,
    grad_distance_to_stiefel,
    init_adapter_state,
    init_lora_state,
    landing_field,
    lora_grads,
    train_lora,
    train_polar_landing,
    whitened_task_grads,
)
from polarlab.runner import advance, run
from polarlab.stiefel import (
    distance_to_stiefel,
    pairwise_direction_distances,
    sample_stiefel_uniform,
    stable_rank,
)

from oracles import (
    PARAMS,
    adam_reference,
    lora_grads_reference,
    lora_step_reference,
    per_parameter_opt,
    polar_directions_reference,
    polar_step_reference,
    whitened_direct_loss,
    whitened_form,
    whitened_task_loss,
)


def _task(seed=0, m=12, n=10, n_cols=20, r_a=2, kappa=3.0):
    return make_whitened_task(m, n, n_cols, r_a, np.random.default_rng(seed), kappa=kappa)


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
# Adam transform


def test_adam_three_step_scalar_oracle():
    # independent recursion: m_t = .9 m + .1 g, v_t = .999 v + .001 g^2,
    # update = (m_t / (1-.9^t)) / (sqrt(v_t / (1-.999^t)) + 1e-8)
    state = AdamState(m=np.zeros(1), v=np.zeros(1))
    grads = [1.0, -2.0, 0.5]
    expected = [0.9999999900000002, -0.36610352472074836, -0.13669066201746632]
    for g, e in zip(grads, expected):
        out = adam_transform(state, np.array([g]))
        assert out[0] == pytest.approx(e, rel=1e-14)
    assert state.t == 3


def test_adam_first_step_is_sign_like():
    state = AdamState(m=np.zeros((3, 2)), v=np.zeros((3, 2)))
    g = np.array([[5.0, -0.01], [100.0, -3.0], [0.5, 2.0]])
    out = adam_transform(state, g)
    assert np.allclose(out, np.sign(g), atol=1e-5)


def test_adam_zero_gradient_stays_zero():
    state = AdamState(m=np.zeros((2, 2)), v=np.zeros((2, 2)))
    for _ in range(5):
        out = adam_transform(state, np.zeros((2, 2)))
        assert np.array_equal(out, np.zeros((2, 2)))
    assert state.t == 5


def test_adam_transform_has_the_oracle_bits_on_both_sides_of_the_crossover():
    # 1 - beta1^t rounds to 1.0 from t = 356 on; each direction must keep the oracle's bits there too
    rng = np.random.default_rng(5)
    state, ref = AdamState(m=np.zeros(50), v=np.zeros(50)), AdamState(m=np.zeros(50), v=np.zeros(50))
    for _ in range(400):
        g = rng.standard_normal(50)
        assert np.array_equal(adam_transform(state, g), adam_reference(ref, g)), state.t
    assert np.array_equal(state.m, ref.m) and np.array_equal(state.v, ref.v)


# ---------------------------------------------------------------------------
# landing field


def test_grad_distance_matches_fd():
    rng = np.random.default_rng(0)
    for _ in range(5):
        X = sample_stiefel_uniform(10, 3, rng) + 0.1 * rng.standard_normal((10, 3))
        fd = _fd_grad(distance_to_stiefel, X)
        assert _rel_err(grad_distance_to_stiefel(X), fd) <= 1e-5


def test_landing_field_zero_grad_scaled_identity():
    # X = 2I: the skew term vanishes and grad N = 4*2I*(4I-I) = 24I
    X = 2.0 * np.eye(4)
    lam = 1e-3
    assert np.allclose(landing_field(X, np.zeros((4, 4)), lam), lam * 24.0 * np.eye(4), atol=1e-14)


def test_landing_field_zero_at_feasible_zero_grad():
    X = sample_stiefel_uniform(12, 4, np.random.default_rng(1))
    out = landing_field(X, np.zeros((12, 4)), 1e-3)
    assert np.linalg.norm(out) <= 1e-10


@pytest.mark.parametrize("lam", [0.0, 1e-3, 1.0])
def test_landing_field_matches_materialized_skew(lam):
    rng = np.random.default_rng(2)
    for _ in range(5):
        X = rng.standard_normal((15, 4))
        G = rng.standard_normal((15, 4))
        # at lam=0 the reference is the skew term alone
        S = G @ X.T
        ref = (0.5 * (S - S.T)) @ X + lam * grad_distance_to_stiefel(X)
        assert np.allclose(landing_field(X, G, lam), ref, atol=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_landing_components_are_orthogonal(seed):
    rng = np.random.default_rng(seed)
    X = sample_stiefel_uniform(20, 5, rng) + 0.05 * rng.standard_normal((20, 5))
    G = rng.standard_normal((20, 5))
    loss_part = landing_field(X, G, 1.0) - grad_distance_to_stiefel(X)
    pen = grad_distance_to_stiefel(X)
    inner = abs(float(np.sum(loss_part * pen)))
    assert inner <= 1e-10 * np.linalg.norm(loss_part) * np.linalg.norm(pen)


@pytest.mark.parametrize("seed", range(4))
def test_landing_kernels_match_the_identity_matrix_forms(seed):
    rng = np.random.default_rng(seed)
    for m, r in ((7, 1), (30, 6), (64, 24)):
        X = sample_stiefel_uniform(m, r, rng) + 10.0 ** -rng.integers(2, 12) * rng.standard_normal((m, r))
        G = rng.standard_normal((m, r))
        A = X.T @ X
        want = G @ (0.5 * A)
        want += X @ ((4.0 * 1e-3) * (A - np.eye(r)) - 0.5 * (G.T @ X))
        assert np.array_equal(landing_field(X, G, 1e-3), want)
        assert np.array_equal(grad_distance_to_stiefel(X), 4.0 * (X @ (A - np.eye(r))))


def test_landing_field_shape_mismatch():
    with pytest.raises(ValueError, match="shape"):
        landing_field(np.eye(3), np.zeros((3, 2)), 1e-3)


# ---------------------------------------------------------------------------
# whitened task


def test_task_whitening_and_realizability():
    t, W0, D, labels, c = whitened_form(12, 10, 20, 2, np.random.default_rng(0), kappa=3.0)
    assert np.linalg.norm(D @ D.T - np.eye(10)) <= 1e-10
    assert abs(c) <= 1e-10
    # the planted matrix is the exact minimizer, under both loss forms
    assert whitened_task_loss(t, t.A) <= 1e-18
    assert whitened_direct_loss(W0, D, labels, t.A) <= 1e-18


@pytest.mark.parametrize(
    "m, n, n_cols, r_a, kappa",
    [(16, 12, 32, 2, 4.0), (64, 32, 256, 4, 10.0)],  # the golden finetune runs' task and the CLI defaults
)
@pytest.mark.parametrize("seed", [0, 1234])
def test_whitened_form_replays_the_library_draws(m, n, n_cols, r_a, kappa, seed):
    rng, replay = np.random.default_rng(seed), np.random.default_rng(seed)
    t = make_whitened_task(m, n, n_cols, r_a, rng, kappa=kappa)
    ref, W0, D, labels, _ = whitened_form(m, n, n_cols, r_a, replay, kappa=kappa)
    for name in ("A", "U", "V", "sigma"):
        assert np.array_equal(getattr(t, name), getattr(ref, name))
    assert t.kappa == ref.kappa and rng.bit_generator.state == replay.bit_generator.state
    assert np.array_equal(labels, (W0 + t.A) @ D)


def test_task_planted_spectrum():
    t = make_whitened_task(12, 10, 20, 3, np.random.default_rng(1), kappa=10.0)
    assert np.allclose(t.sigma, [1.0, 0.55, 0.1], atol=1e-15)
    # the factorization targets' spectrum rule, with the bits of linspace(kappa, 1, r_a) / kappa
    assert np.array_equal(t.sigma, np.linspace(10.0, 1.0, 3) / 10.0)
    assert t.r_a == 3
    t1 = make_whitened_task(12, 10, 20, 1, np.random.default_rng(1), kappa=1.0)
    assert np.array_equal(t1.sigma, np.ones(1))
    with pytest.raises(ValueError, match="r_a = 1 forces kappa = 1"):
        make_whitened_task(12, 10, 20, 1, np.random.default_rng(1), kappa=10.0)


def test_task_validates():
    # a bad n_cols or r_a is rejected before anything is drawn, as a bad kappa is below
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="n_cols"):
        make_whitened_task(12, 10, 8, 2, rng)
    for r_a in (0, 11):
        with pytest.raises(ValueError, match="r_a"):
            make_whitened_task(12, 10, 20, r_a, rng)
    assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state


@pytest.mark.parametrize("kappa", [0.5, 0.0, -2.0])
def test_task_rejects_kappa_below_one_before_drawing(kappa):
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match=f"kappa must be >= 1, got {kappa}"):
        make_whitened_task(12, 10, 20, 2, rng, kappa=kappa)
    assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state


@pytest.mark.parametrize("kappa", [float("nan"), float("inf"), float("-inf")])
def test_task_rejects_non_finite_kappa_before_drawing(kappa):
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match=f"^kappa must be finite, got {kappa}$"):
        make_whitened_task(12, 10, 20, 2, rng, kappa=kappa)
    assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state


@pytest.mark.parametrize("seed", range(5))
def test_direct_and_factored_losses_agree(seed):
    t, W0, D, labels, _ = whitened_form(12, 10, 20, 2, np.random.default_rng(seed), kappa=3.0)
    dw = np.random.default_rng(seed + 100).standard_normal((12, 10))
    direct = whitened_direct_loss(W0, D, labels, dw)
    factored = whitened_task_loss(t, dw)
    assert direct == pytest.approx(factored, rel=1e-10)


def test_factored_loss_leaves_out_c():
    # seed 0's whitened form carries c = -3.6e-15; the reported loss at P is 0.0, not c
    t, *_, c = whitened_form(12, 10, 20, 2, np.random.default_rng(0), kappa=3.0)
    assert c < 0.0
    assert whitened_task_loss(t, t.A) == 0.0


def test_task_loss_is_the_trainers_final_loss():
    # the A6 shape at workload seed 47, whose whitened form carries c = -1.4e-14: adding
    # c and clamping at 0 read 0.0 where the trace reads 3.5e-27
    task = make_whitened_task(64, 32, 128, 4, np.random.default_rng(1281), kappa=10.0)
    *_, c = whitened_form(64, 32, 128, 4, np.random.default_rng(1281), kappa=10.0)
    cfg = LandingConfig(eta=2e-2, lam=1e-3, schedule="constant", seed=47, max_iters=2000)
    trace, state = train_lora(task, 24, cfg)
    assert c < 0.0
    assert whitened_task_loss(task, state.delta_w()) == trace.final_loss > 0.0


# ---------------------------------------------------------------------------
# task gradients


@pytest.mark.parametrize("seed", range(4))
def test_whitened_task_grads_match_fd(seed):
    t = _task(seed)
    rng = np.random.default_rng(seed + 10)
    state = init_adapter_state(t, 4, rng)
    state = AdapterState(X=state.X, Theta=rng.standard_normal((4, 4)), Y=state.Y)
    G_X, G_Theta, G_Y, loss = whitened_task_grads(t, state)
    assert loss == pytest.approx(whitened_task_loss(t, state.delta_w()), rel=1e-12)

    def loss_at(**kw):
        s = AdapterState(X=kw.get("X", state.X), Theta=kw.get("Theta", state.Theta), Y=kw.get("Y", state.Y))
        return whitened_task_loss(t, s.delta_w())

    assert _rel_err(G_X, _fd_grad(lambda W: loss_at(X=W), state.X)) <= 1e-5
    assert _rel_err(G_Theta, _fd_grad(lambda W: loss_at(Theta=W), state.Theta)) <= 1e-5
    assert _rel_err(G_Y, _fd_grad(lambda W: loss_at(Y=W), state.Y)) <= 1e-5


@pytest.mark.parametrize("seed", range(4))
def test_lora_grads_match_fd(seed):
    t = _task(seed)
    rng = np.random.default_rng(seed + 20)
    state = LoraState(Z1=rng.standard_normal((12, 4)), Z2=rng.standard_normal((10, 4)))
    G1, G2, loss = lora_grads(t, state)
    assert loss == pytest.approx(whitened_task_loss(t, state.delta_w()), rel=1e-12)
    fd1 = _fd_grad(lambda Z: whitened_task_loss(t, LoraState(Z1=Z, Z2=state.Z2).delta_w()), state.Z1)
    fd2 = _fd_grad(lambda Z: whitened_task_loss(t, LoraState(Z1=state.Z1, Z2=Z).delta_w()), state.Z2)
    assert _rel_err(G1, fd1) <= 1e-5
    assert _rel_err(G2, fd2) <= 1e-5


# ---------------------------------------------------------------------------
# states and config


def test_init_adapter_starts_at_zero_update():
    t = _task(0)
    state = init_adapter_state(t, 4, np.random.default_rng(0))
    assert np.array_equal(state.Theta, np.zeros((4, 4)))
    assert np.array_equal(state.delta_w(), np.zeros((12, 10)))
    assert distance_to_stiefel(state.X) <= 1e-18
    assert distance_to_stiefel(state.Y) <= 1e-18


def test_init_lora_scale_and_zero_update():
    state = init_lora_state(make_whitened_task(64, 64, 64, 4, np.random.default_rng(0)), 40, np.random.default_rng(1))
    assert np.array_equal(state.Z2, np.zeros((64, 40)))
    assert state.Z1.std() == pytest.approx(1.0 / 8.0, rel=0.1)
    assert np.array_equal(state.delta_w(), np.zeros((64, 64)))


def test_delta_w_scaling():
    rng = np.random.default_rng(2)
    state = AdapterState(X=rng.standard_normal((6, 3)), Theta=np.eye(3), Y=rng.standard_normal((5, 3)))
    assert np.allclose(state.delta_w(), (32.0 / 3) * state.X @ state.Y.T, atol=1e-14)


def test_adapter_states_extend_the_factor_states():
    # each adapter adds its kind and the alpha / r scale, alpha fixed at 32; it holds no base weight
    g = np.random.default_rng(3).standard_normal
    X, Theta, Y, Z1, Z2 = g((6, 3)), g((3, 3)), g((5, 3)), g((6, 3)), g((5, 3))
    polar = AdapterState(X=X, Theta=Theta, Y=Y)
    lora = LoraState(Z1=Z1, Z2=Z2)
    assert isinstance(polar, PolarFactors) and isinstance(lora, BMFactors)
    assert (polar.kind, lora.kind) == ("polar-adapter", "lora")
    assert [f.name for f in fields(polar)] == ["X", "Theta", "Y"]
    assert [f.name for f in fields(lora)] == ["Z1", "Z2"]
    assert polar.scale_alpha == lora.scale_alpha == ADAPTER_ALPHA == 32.0
    assert not hasattr(polar, "params") and not hasattr(lora, "params")
    # the bits of the expressions each state evaluated when it declared its own factors
    assert np.array_equal(polar.delta_w(), (32.0 / 3) * ((X @ Theta) @ Y.T))
    assert np.array_equal(lora.delta_w(), (32.0 / 3) * (Z1 @ Z2.T))


def test_config_validates_and_schedules():
    with pytest.raises(ValueError, match="lam"):
        LandingConfig(lam=0.0)
    cfg = LandingConfig(eta=0.25)
    assert cfg.eta_at(17) == 0.25
    cfg = LandingConfig(eta=0.5, schedule="constant")
    assert cfg.eta_at(3) == 0.5
    cfg = LandingConfig(eta=1.0, schedule="linear", max_iters=100)
    assert cfg.eta_at(0) == 1.0
    assert cfg.eta_at(50) == pytest.approx(0.5)
    with pytest.raises(ValueError, match="non-positive"):
        cfg.eta_at(100)
    with pytest.raises(ValueError, match="cosine"):
        LandingConfig(schedule="cosine")
    for eta in (float("nan"), 0.0):
        with pytest.raises(ValueError, match=f"^eta must be finite and positive, got eta = {eta}$"):
            LandingConfig(eta=eta)


# ---------------------------------------------------------------------------
# training steps


def test_polar_step_at_theta_zero_moves_only_by_penalty():
    # at Theta = 0 the X and Y loss gradients vanish, so the landing field
    # reduces to its penalty component, while Theta picks up the residual
    t = _task(3)
    state = init_adapter_state(t, 4, np.random.default_rng(5))
    G_X, G_Theta, G_Y, _ = whitened_task_grads(t, state)
    assert np.array_equal(G_X, np.zeros_like(state.X))
    assert np.array_equal(G_Y, np.zeros_like(state.Y))
    assert np.linalg.norm(G_Theta) > 0
    assert np.allclose(landing_field(state.X, G_X, 1e-3), 1e-3 * grad_distance_to_stiefel(state.X), atol=1e-18)
    cfg = LandingConfig(eta=1e-2, max_iters=1)
    new, _ = advance(_PolarLanding(t, cfg, state), state, 0)
    assert np.linalg.norm(new.Theta) > 0


def test_polar_step_single_backward_pass():
    # all three updates must come from gradients at the pre-step state
    t = _task(4)
    rng = np.random.default_rng(6)
    state = init_adapter_state(t, 4, rng)
    state = AdapterState(X=state.X, Theta=rng.standard_normal((4, 4)), Y=state.Y)
    cfg = LandingConfig(lam=1e-3, eta=1e-2, max_iters=1)
    new, loss = advance(_PolarLanding(t, cfg, state), state, 0)

    G_X, G_Theta, G_Y, loss_ref = whitened_task_grads(t, state)
    ref_opt = per_parameter_opt(state)
    want_X = state.X - 1e-2 * adam_transform(ref_opt["X"], landing_field(state.X, G_X, 1e-3))
    want_Th = state.Theta - 1e-2 * adam_transform(ref_opt["Theta"], G_Theta)
    want_Y = state.Y - 1e-2 * adam_transform(ref_opt["Y"], landing_field(state.Y, G_Y, 1e-3))
    assert loss == loss_ref
    assert np.array_equal(new.X, want_X)
    assert np.array_equal(new.Theta, want_Th)
    assert np.array_equal(new.Y, want_Y)


def test_polar_step_theta_modes():
    # Theta is always the full r x r matrix; there is no setting for its shape
    with pytest.raises(TypeError):
        LandingConfig(eta=1e-2, max_iters=1, theta_mode="full")
    with pytest.raises(ValueError, match="grad_mode"):
        LandingConfig(eta=1e-2, max_iters=1, grad_mode="newton")


def test_polar_step_divergence_guard():
    t = _task(6)
    state = init_adapter_state(t, 4, np.random.default_rng(8))
    state = AdapterState(X=state.X, Theta=1e200 * np.eye(4), Y=state.Y)
    cfg = LandingConfig(eta=1e-2, max_iters=1)
    with np.errstate(over="ignore"), pytest.raises(DivergenceError):
        advance(_PolarLanding(t, cfg, state), state, 0)


def test_lora_step_first_move_freezes_z1():
    # Z2 = 0 makes the Z1 gradient exactly zero, so Z1 must not move
    t = _task(7)
    state = init_lora_state(t, 4, np.random.default_rng(9))
    cfg = LandingConfig(eta=1e-2, max_iters=1)
    new, _ = advance(_Lora(t, cfg, state), state, 0)
    assert np.array_equal(new.Z1, state.Z1)
    assert not np.array_equal(new.Z2, state.Z2)


@pytest.mark.parametrize(
    "method, modes, schedule",
    [
        ("polar", {}, "constant"),
        ("polar", {"grad_mode": "euclidean"}, "linear"),
        ("lora", {}, "constant"),
        ("lora", {}, "linear"),
    ],
)
def test_packed_adam_matches_per_parameter_oracle(method, modes, schedule):
    # one Adam over the packed parameters gives every entry the bits of one Adam per parameter
    t = _task(13)
    init, make, reference = {
        "polar": (init_adapter_state, _PolarLanding, polar_step_reference),
        "lora": (init_lora_state, _Lora, lora_step_reference),
    }[method]
    state = ref = init(t, 4, np.random.default_rng(14))
    cfg = LandingConfig(lam=1e-3, eta=1e-2, schedule=schedule, max_iters=40, **modes)
    stepper, ref_opts = make(t, cfg, state), per_parameter_opt(state)
    opt = stepper.opt
    for it in range(25):
        state, _ = advance(stepper, state, it)
        ref = reference(t, ref, ref_opts, cfg, it, **modes)
    assert opt.t == 25 and all(o.t == 25 for o in ref_opts.values())
    for moment in ("m", "v"):
        want = np.concatenate([getattr(ref_opts[name], moment).ravel() for name in PARAMS[state.kind]])
        assert np.array_equal(getattr(opt, moment), want)
    for name in PARAMS[state.kind]:
        assert np.array_equal(getattr(state, name), getattr(ref, name))


@pytest.mark.parametrize("method", ["polar", "lora"])
def test_packed_adam_matches_the_oracle_past_the_bias_correction_crossover(method):
    # from t = 356 on, 1 - beta1^t rounds to 1.0, where the oracle still divides m by it
    assert 1.0 - ADAM_BETA1**355 < 1.0 == 1.0 - ADAM_BETA1**356
    t = _task(13)
    init, make, reference = {
        "polar": (init_adapter_state, _PolarLanding, polar_step_reference),
        "lora": (init_lora_state, _Lora, lora_step_reference),
    }[method]
    state = ref = init(t, 4, np.random.default_rng(14))
    cfg = LandingConfig(lam=1e-3, eta=1e-2, schedule="constant", max_iters=400)
    stepper, ref_opts = make(t, cfg, state), per_parameter_opt(state)
    for it in range(400):
        state, _ = advance(stepper, state, it)
        ref = reference(t, ref, ref_opts, cfg, it)
    assert stepper.opt.t == 400 and all(o.t == 400 for o in ref_opts.values())
    for moment in ("m", "v"):
        want = np.concatenate([getattr(ref_opts[name], moment).ravel() for name in PARAMS[state.kind]])
        assert np.array_equal(getattr(stepper.opt, moment), want)
    for name in PARAMS[state.kind]:
        assert np.array_equal(getattr(state, name), getattr(ref, name))


@pytest.mark.parametrize("method", ["polar", "lora"])
def test_step_leaves_the_state_it_steps_from_unchanged(method):
    t = _task(15)
    init, make = {"polar": (init_adapter_state, _PolarLanding), "lora": (init_lora_state, _Lora)}[method]
    state = init(t, 4, np.random.default_rng(16))
    stepper = make(t, LandingConfig(eta=1e-2, max_iters=10), state)
    for it in range(3):  # after the first step the parameters are views of one packed vector
        before = {name: getattr(state, name).copy() for name in PARAMS[state.kind]}
        new, _ = advance(stepper, state, it)
        for name, array in before.items():
            assert np.array_equal(getattr(state, name), array)
            assert not np.shares_memory(getattr(new, name), getattr(state, name))
        state = new


class _Watched:
    """A method that keeps each state it is stepped from with a copy of its parameters, and
    whether that state's parameters were the views the method returned last."""

    def __init__(self, method):
        self.method, self.name, self.stepped = method, method.name, []

    def evaluate(self, state):
        return self.method.evaluate(state)

    def step(self, state, ev, it):
        views = tuple(getattr(state, name) for name in PARAMS[state.kind])
        returned_last = all(a is b for a, b in zip(views, self.method._views))
        self.stepped.append((state, [a.copy() for a in views], returned_last))
        return self.method.step(state, ev, it)

    def record(self, state, ev):
        return self.method.record(state, ev)


@pytest.mark.parametrize(
    "method, modes, schedule",
    [
        ("polar", {}, "constant"),
        ("polar", {"grad_mode": "euclidean"}, "linear"),
        ("lora", {}, "constant"),
    ],
)
def test_one_method_object_matches_per_parameter_oracle(method, modes, schedule):
    # one method object runs the whole budget, so from the second step on it reads the
    # packed vector it returned instead of repacking; every bit still matches the oracle
    t = _task(17)
    init, make, reference = {
        "polar": (init_adapter_state, _PolarLanding, polar_step_reference),
        "lora": (init_lora_state, _Lora, lora_step_reference),
    }[method]
    state = ref = init(t, 4, np.random.default_rng(18))
    cfg = LandingConfig(lam=1e-3, eta=1e-2, schedule=schedule, max_iters=60, **modes)
    watched, ref_opts = _Watched(make(t, cfg, state)), per_parameter_opt(state)
    opt = watched.method.opt
    _, state = run(watched, state, {}, cfg.max_iters, record_every=7)
    for it in range(cfg.max_iters):
        ref = reference(t, ref, ref_opts, cfg, it, **modes)
    assert opt.t == 60 and all(o.t == 60 for o in ref_opts.values())
    for moment in ("m", "v"):
        want = np.concatenate([getattr(ref_opts[name], moment).ravel() for name in PARAMS[state.kind]])
        assert np.array_equal(getattr(opt, moment), want)
    for name in PARAMS[state.kind]:
        assert np.array_equal(getattr(state, name), getattr(ref, name))
    assert [returned_last for _, _, returned_last in watched.stepped] == [False] + [True] * 59
    for stepped_from, copies, _ in watched.stepped:  # no step wrote a state it had stepped from
        for name, copy in zip(PARAMS[stepped_from.kind], copies):
            assert np.array_equal(getattr(stepped_from, name), copy)


@pytest.mark.parametrize("method", ["polar", "lora"])
def test_state_not_returned_by_the_method_is_packed_afresh(method):
    t = _task(19)
    init, make = {"polar": (init_adapter_state, _PolarLanding), "lora": (init_lora_state, _Lora)}[method]
    state = init(t, 4, np.random.default_rng(20))
    cfg = LandingConfig(eta=1e-2, max_iters=10)
    stepper = make(t, cfg, state)
    for it in range(3):
        state, _ = advance(stepper, state, it)
    # the last parameter replaced by a fresh array; the others are still the method's views
    last = PARAMS[state.kind][-1]
    hand = replace(state, **{last: getattr(state, last) + 0.5})
    opt, fresh = stepper.opt, make(t, cfg, hand)
    fresh.opt = AdamState(m=opt.m.copy(), v=opt.v.copy(), t=opt.t)
    got, _ = advance(stepper, hand, 3)
    want, _ = advance(fresh, hand, 3)
    for name in PARAMS[state.kind]:
        assert np.array_equal(getattr(got, name), getattr(want, name))
    assert np.array_equal(opt.m, fresh.opt.m) and np.array_equal(opt.v, fresh.opt.v)


def test_linear_schedule_needs_a_budget():
    with pytest.raises(ValueError, match="max_iters >= 1, got 0"):
        LandingConfig(schedule="linear", max_iters=0)
    assert LandingConfig(schedule="constant", max_iters=0).eta_at(0) == 1e-2


@pytest.mark.parametrize("method", ["polar", "lora"])
def test_step_returns_views_of_the_packed_vector(method):
    t = _task(27)
    init, make = {"polar": (init_adapter_state, _PolarLanding), "lora": (init_lora_state, _Lora)}[method]
    state = init(t, 4, np.random.default_rng(28))
    stepper = make(t, LandingConfig(eta=1e-2, max_iters=10), state)
    for it in range(3):  # the first step packs afresh, the later ones reuse the packed vector
        new, _ = advance(stepper, state, it)
        assert type(new) is type(state)
        assert all(getattr(new, name) is view for name, view in zip(PARAMS[new.kind], stepper._views))
        state = new


# ---------------------------------------------------------------------------
# runners


def _small_cfg(T, record_every=10, seed=0):
    return LandingConfig(lam=1e-3, eta=1e-2, schedule="linear", max_iters=T, seed=seed, record_every=record_every)


def test_train_polar_landing_descends_and_lands():
    t = make_whitened_task(16, 16, 24, 2, np.random.default_rng(3), kappa=5.0)
    tr, state = train_polar_landing(t, 4, _small_cfg(800, record_every=100))
    assert tr.columns["loss"][-1] < 1e-6 * tr.columns["loss"][0]
    assert tr.columns["n_x"][-1] <= 1e-2
    assert tr.columns["n_y"][-1] <= 1e-2
    assert tr.columns["iter"] == [0, 100, 200, 300, 400, 500, 600, 700, 800]
    assert tr.metadata["method"] == "landing-polar"
    assert tr.metadata["final_loss"] == tr.columns["loss"][-1]
    assert whitened_task_loss(t, state.delta_w()) == pytest.approx(tr.columns["loss"][-1], abs=1e-18, rel=1e-9)


def test_train_polar_landing_is_deterministic():
    t = _task(8)
    t1, s1 = train_polar_landing(t, 4, _small_cfg(120, record_every=40))
    t2, s2 = train_polar_landing(t, 4, _small_cfg(120, record_every=40))
    assert t1.columns["loss"] == t2.columns["loss"]
    assert np.array_equal(s1.X, s2.X)
    assert np.array_equal(s1.Theta, s2.Theta)
    assert np.array_equal(s1.Y, s2.Y)


def test_train_polar_trace_alignment_columns_are_nan():
    # off-manifold iterates have no subspace-alignment reading
    t = _task(9)
    tr, _ = train_polar_landing(t, 4, _small_cfg(60, record_every=30))
    assert all(np.isnan(v) for v in tr.columns["trace_phi"])
    assert all(np.isnan(v) for v in tr.columns["trace_psi"])
    assert all(np.isfinite(v) for v in tr.columns["n_x"])
    assert all(np.isfinite(v) for v in tr.columns["stable_rank"][1:])


def test_train_lora_descends():
    t = make_whitened_task(16, 16, 24, 2, np.random.default_rng(3), kappa=5.0)
    tr, state = train_lora(t, 4, _small_cfg(800, record_every=100))
    assert tr.columns["loss"][-1] < 1e-4 * tr.columns["loss"][0]
    assert tr.metadata["method"] == "lora"
    assert whitened_task_loss(t, state.delta_w()) == pytest.approx(tr.columns["loss"][-1], abs=1e-18, rel=1e-9)


def test_component_orthogonality_along_run():
    t = _task(10)
    state = init_adapter_state(t, 4, np.random.default_rng(11))
    cfg = _small_cfg(100)
    stepper = _PolarLanding(t, cfg, state)
    for step in range(100):
        G_X, _, G_Y, _ = whitened_task_grads(t, state)
        for Xmat, G in ((state.X, G_X), (state.Y, G_Y)):
            pen = grad_distance_to_stiefel(Xmat)
            loss_part = landing_field(Xmat, G, cfg.lam) - cfg.lam * pen
            inner = abs(float(np.sum(loss_part * pen)))
            assert inner <= 1e-8 * max(np.linalg.norm(loss_part) * np.linalg.norm(pen), 1e-30)
        state, _ = advance(stepper, state, step)


def _spectrum_states(m, n, sigma, rng):
    """A polar and a LoRA adapter state of rank r = sigma.size whose DeltaW has the singular values
    sigma: Haar U, V and an r x r rotation Q mix the directions into X = U Q, Theta and Z1, Z2 = V Q."""
    k = sigma.size
    U, V, Q = sample_stiefel_uniform(m, k, rng), sample_stiefel_uniform(n, k, rng), sample_stiefel_uniform(k, k, rng)
    s = 32.0 / k  # the alpha / r of both adapters
    polar = AdapterState(X=U @ Q, Theta=(Q.T * sigma) / s, Y=V)
    lora = LoraState(Z1=((U * sigma) @ Q) / s, Z2=V @ Q)
    return polar, lora


@pytest.mark.parametrize("shape", [(40, 12), (12, 40), (20, 20)])
@pytest.mark.parametrize("spectrum", ["full", "rank 1", "rank 3", "kappa 1e6"])
def test_trace_row_stable_rank_matches_the_svd(shape, spectrum):
    rng = np.random.default_rng(32)
    k = min(shape)
    sigma = {
        "full": lambda: rng.uniform(0.5, 3.0, k),
        "rank 1": lambda: np.array([2.5]),
        "rank 3": lambda: np.array([3.0, 1.0, 0.2]),
        "kappa 1e6": lambda: np.geomspace(1.0, 1e-6, k),
    }[spectrum]()
    for _ in range(3):
        for state in _spectrum_states(*shape, sigma, rng):
            want = stable_rank(state.delta_w()).stable_rank
            assert abs(_adapter_columns(state)["stable_rank"] - want) <= 1e-13 * want


@pytest.mark.parametrize("entry", [0.0, np.nan, np.inf, -np.inf])
def test_trace_row_stable_rank_is_nan_for_zero_or_non_finite(entry):
    # LoRA at its initialization (Z2 = 0) and the polar adapter at its own (Theta = 0), each with one
    # entry of Z2, Z1 or Theta set to ``entry``: the other entries stay, so the products meet inf * 0
    rng = np.random.default_rng(36)
    for m, n in ((6, 4), (4, 6)):
        Z1, Z2 = rng.standard_normal((m, 3)), np.zeros((n, 3))
        X, Y = sample_stiefel_uniform(m, 3, rng), sample_stiefel_uniform(n, 3, rng)
        states = [LoraState(Z1=Z1, Z2=Z2.copy()), LoraState(Z1=Z1.copy(), Z2=Z2), AdapterState(X=X, Theta=np.zeros((3, 3)), Y=Y)]
        states[0].Z2[2, 1] = states[1].Z1[2, 1] = states[2].Theta[2, 1] = entry
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for state in states:
                assert np.isnan(_adapter_columns(state)["stable_rank"])


def test_trace_row_falls_back_to_the_delta_w_gram_where_cholesky_fails():
    # a repeated column leaves Z1^T Z1 singular, as LoRA's Z1 loses rank on the A6 benchmark runs; the
    # row then reads the ratio from DeltaW's smaller Gram matrix, bit for bit
    rng = np.random.default_rng(37)
    for m, n in ((40, 12), (12, 40)):
        Z1 = rng.standard_normal((m, 6))
        Z1[:, 4] = Z1[:, 1]
        state = LoraState(Z1=Z1, Z2=rng.standard_normal((n, 6)))
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(np.dot(Z1.T, Z1))
        W = state.delta_w()
        gram = np.dot(W.T, W) if W.shape[0] >= W.shape[1] else np.dot(W, W.T)
        row = _adapter_columns(state)["stable_rank"]
        assert row == float(np.vdot(W, W)) / float(np.linalg.eigvalsh(gram)[-1])
        want = stable_rank(W).stable_rank
        assert abs(row - want) <= 1e-13 * want


def test_trace_row_stable_rank_far_off_the_manifold_matches_the_svd():
    # the r x r core path at N(X) of order 1e3, the excursions of a landing run at a constant step
    rng = np.random.default_rng(38)
    X = (sample_stiefel_uniform(40, 4, rng) * np.array([1.0, 2.0, 4.0, 5.6])) @ sample_stiefel_uniform(4, 4, rng)
    state = AdapterState(X=X, Theta=rng.standard_normal((4, 4)), Y=sample_stiefel_uniform(12, 4, rng))
    np.linalg.cholesky(np.dot(X.T, X))  # the core path, no fallback
    row = _adapter_columns(state)
    want = stable_rank(state.delta_w()).stable_rank
    assert 1e3 <= row["n_x"] <= 2e3
    assert abs(row["stable_rank"] - want) <= 1e-13 * want


@pytest.mark.parametrize("train", [train_polar_landing, train_lora])
def test_last_trace_row_stable_rank_is_the_final_states(train):
    tr, final = train(_task(33), 4, _small_cfg(90, record_every=30))
    want = stable_rank(final.delta_w()).stable_rank
    assert abs(tr.columns["stable_rank"][-1] - want) <= 1e-13 * want
    assert np.isnan(tr.columns["stable_rank"][0])  # DeltaW = 0 at initialization, Theta = 0 or Z2 = 0


@pytest.mark.parametrize(
    "method, modes",
    [("polar", {}), ("polar", {"grad_mode": "euclidean"}), ("lora", {})],
)
def test_trace_rows_keep_the_bits_of_the_per_parameter_oracle(method, modes):
    # grad_norm is the norm of the directions the oracle hands to Adam at each recorded iteration
    # (the polar adapter's X, Y and Theta, LoRA's Z1 and Z2, in that order), summed as np.vdot(d, d),
    # and NaN on the last row, which takes no step; n_x and n_y are distance_to_stiefel's
    t = _task(34)
    init, make = {"polar": (init_adapter_state, _PolarLanding), "lora": (init_lora_state, _Lora)}[method]
    state = ref = init(t, 4, np.random.default_rng(35))
    cfg = LandingConfig(lam=1e-3, eta=1e-2, schedule="linear", max_iters=40, **modes)
    ref_opts = per_parameter_opt(state)
    tr, _ = run(make(t, cfg, state), state, {}, cfg.max_iters, record_every=3)
    rows = dict(zip(tr.columns["iter"], range(len(tr.columns["iter"]))))
    for it in range(cfg.max_iters + 1):
        if it in rows:
            left, right = state.factors
            assert tr.columns["n_x"][rows[it]] == distance_to_stiefel(getattr(ref, left))
            assert tr.columns["n_y"][rows[it]] == distance_to_stiefel(getattr(ref, right))
            if it < cfg.max_iters:
                if method == "polar":
                    d = polar_directions_reference(t, ref, cfg, **modes)
                    terms = (d["X"], d["Y"], d["Theta"])
                else:
                    terms = lora_grads_reference(t, ref)[:2]
                want = math.sqrt(sum(np.vdot(g, g) for g in terms))
                assert tr.columns["grad_norm"][rows[it]] == want
        if it < cfg.max_iters:
            step = polar_step_reference if method == "polar" else lora_step_reference
            ref = step(t, ref, ref_opts, cfg, it, **modes)
    assert sorted(rows) == list(range(0, 40, 3)) + [40]
    assert np.isnan(tr.columns["grad_norm"][-1])


# ---------------------------------------------------------------------------
# diagnostics and checkpoints


def test_diversity_report_fields():
    # the stable rank, spectrum and row spread of a trained DeltaW, as the adapter demo reports them
    t = _task(12)
    _, state = train_polar_landing(t, 4, _small_cfg(200, record_every=100))
    summary = stable_rank(state.delta_w())
    spread = pairwise_direction_distances(state.delta_w())
    assert 1.0 <= summary.stable_rank <= 4.0 + 1e-9
    assert (np.diff(summary.singular_values) <= 1e-15).all()
    assert 0.0 <= spread.mean_distance <= 2.0


def test_adapter_checkpoint_roundtrip(tmp_path):
    t = _task(13)
    _, state = train_polar_landing(t, 4, _small_cfg(30, record_every=15))
    io.save_state(tmp_path / "polar", state, {"note": "test"})
    loaded, meta = io.load_state(tmp_path / "polar")
    assert isinstance(loaded, AdapterState)
    assert meta["kind"] == "polar-adapter"
    assert meta["note"] == "test"
    for name in ("X", "Theta", "Y"):
        assert np.array_equal(getattr(loaded, name), getattr(state, name))
    assert not (tmp_path / "polar" / "W0.csv").exists()

    _, lstate = train_lora(t, 4, _small_cfg(30, record_every=15))
    io.save_state(tmp_path / "lora", lstate, {})
    lloaded, lmeta = io.load_state(tmp_path / "lora")
    assert isinstance(lloaded, LoraState)
    assert np.array_equal(lloaded.Z1, lstate.Z1)
    assert np.array_equal(lloaded.Z2, lstate.Z2)
    assert not (tmp_path / "lora" / "W0.csv").exists()


def test_checkpoint_rejects_unknown_kind(tmp_path):
    io.save_checkpoint(tmp_path / "bad", {"W0": np.eye(2)}, {"kind": "mystery"})
    with pytest.raises(ValueError, match="unknown checkpoint kind"):
        io.load_state(tmp_path / "bad")
    with pytest.raises(TypeError):
        io.save_state(tmp_path / "worse", object(), {})
