"""The in-place retraction, projection, sampler, RGD and BM-GD evaluations,
landing-step kernel, adapter gradients and adapter trace row reproduce their
plain-expression references bit for bit, and the retraction's certificate
still fails on a non-finite output."""

import numpy as np
import pytest
from kernel_timing import ETA, KERNELS, LAM
from oracles import (
    adapter_columns_reference,
    bm_gd_evaluate_reference,
    bm_gd_step_reference,
    landing_field_reference,
    lora_grads_reference,
    polar_rgd_evaluate_reference,
    polar_retract_reference,
    sample_stiefel_uniform_reference,
    tangent_project_reference,
    whitened_task_grads_reference,
)

from polarlab import stiefel
from polarlab.exceptions import FeasibilityError
from polarlab.config import LandingConfig
from polarlab.factorization import (
    BMFactors,
    PolarFactors,
    SymFactors,
    _BMGD,
    _PolarRGD,
    init_bm_factors,
    init_polar_factors,
    init_sym_factors,
    make_sym_target,
    make_target,
    make_whitened_task,
)
from polarlab.landing import (
    _adapter_columns,
    _Lora,
    _PolarLanding,
    init_adapter_state,
    init_lora_state,
    landing_field,
    lora_grads,
    whitened_task_grads,
)
from polarlab.runner import advance
from polarlab.stiefel import polar_retract, retract_series_order, sample_stiefel_uniform, tangent_project

# x = ||eta^2 D^T D||_F inside each order's interval of retract_series_order; None takes eigh, as
# the 1-norm order is above 12 there too
ORDER_X = {
    1: 5e-17,
    2: 2e-12,
    3: 3.5e-7,
    4: 3e-5,
    5: 3.5e-4,
    6: 1.5e-3,
    7: 4.3e-3,
    8: 9e-3,
    9: 1.6e-2,
    10: 2.5e-2,
    11: 3.5e-2,
    12: 4.7e-2,
    None: 0.3,
}
# (shape, x, order of ||eta^2 D^T D||_1) where the Frobenius order is None: the series runs at the
# 1-norm's order, and eigh only where that is None too, here with both bounds >= 1/2
ONE_NORM_CASES = [((4096, 32), 0.08, 10), ((4096, 256), 0.08, 10), ((4096, 32), 4.0, None)]


def _tangent_pair(m, r, seed):
    rng = np.random.default_rng(seed)
    X = sample_stiefel_uniform(m, r, rng)
    return X, tangent_project(X, rng.standard_normal((m, r)))


@pytest.mark.parametrize("order", list(ORDER_X))
@pytest.mark.parametrize("shape", [(50, 20), (4096, 32)])
def test_retraction_matches_reference_at_every_order(shape, order):
    X, D = _tangent_pair(*shape, seed=3)
    k_norm = float(np.linalg.norm(D.T @ D))
    eta = float(np.sqrt(ORDER_X[order] / k_norm))
    assert retract_series_order(eta * eta * k_norm) == order
    assert np.array_equal(polar_retract(X, D, eta), polar_retract_reference(X, D, eta))


@pytest.mark.parametrize("shape, x, order", ONE_NORM_CASES)
def test_retraction_takes_the_one_norm_order_where_frobenius_selects_eigh(monkeypatch, shape, x, order):
    X, D = _tangent_pair(*shape, seed=3)
    M = D.T @ D
    eta = float(np.sqrt(x / np.linalg.norm(M)))
    K = eta * eta * M
    assert retract_series_order(np.linalg.norm(K)) is None
    assert retract_series_order(np.linalg.norm(K, 1)) == order
    assert order is not None or np.linalg.norm(K, 1) >= 0.5
    eigh_calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda A: eigh_calls.append(A) or eigh(A))
    out = polar_retract(X, D, eta)
    monkeypatch.undo()
    assert len(eigh_calls) == (1 if order is None else 0)
    assert np.array_equal(out, polar_retract_reference(X, D, eta))


@pytest.mark.parametrize("shape", [(12, 4), (50, 20), (4096, 32)])
def test_tangent_project_matches_reference(shape):
    rng = np.random.default_rng(5)
    X = sample_stiefel_uniform(*shape, rng)
    G = rng.standard_normal(shape)
    assert np.array_equal(tangent_project(X, G), tangent_project_reference(X, G))


@pytest.mark.parametrize("shape", [(5, 2), (12, 12), (40, 7), (50, 20), (4096, 256)])
@pytest.mark.parametrize("seed", [0, 1])
def test_sampler_matches_reference(shape, seed):
    X = sample_stiefel_uniform(*shape, np.random.default_rng(seed))
    assert np.array_equal(X, sample_stiefel_uniform_reference(*shape, np.random.default_rng(seed)))


@pytest.mark.parametrize("shape", [(12, 12), (50, 20), (512, 256)])
def test_sampler_matches_reference_when_polishing_stalls(monkeypatch, shape):
    # with no floor, Newton-Schulz runs until a polish fails to improve, so
    # the branch that rejects the last polished iterate runs too
    monkeypatch.setattr(stiefel, "SAMPLE_NS_FLOOR", 0.0)
    X = sample_stiefel_uniform(*shape, np.random.default_rng(7))
    assert np.array_equal(X, sample_stiefel_uniform_reference(*shape, np.random.default_rng(7), floor=0.0))


@pytest.mark.parametrize("shape", [(50, 20), (4096, 32)])
def test_landing_step_kernel_matches_reference(shape):
    rng = np.random.default_rng(6)
    X = sample_stiefel_uniform(*shape, rng)
    G = rng.standard_normal(shape)
    assert np.array_equal(KERNELS["landing-step"](X, G), X - ETA * landing_field(X, G, LAM))


def _stepped(method, f, steps):
    # steps into the run; 0 keeps the initial state, whose Theta = 0 the evaluation must not read
    for it in range(steps):
        f = advance(method, f, it)[0]
    return f


@pytest.mark.parametrize("m, n", [(50, 50), (60, 40), (40, 60)])
def test_polar_rgd_evaluate_matches_reference(m, n):
    rng = np.random.default_rng(11)
    target = make_target(m, n, 4, 10.0, rng)
    method = _PolarRGD(target, 1e-3)
    f = _stepped(method, init_polar_factors(target, 20, rng), 5)
    state, loss, ev = method.evaluate(f)
    Theta, ref_loss, ref_grad_sq, ref_ev = polar_rgd_evaluate_reference(target, f)
    assert isinstance(state, PolarFactors) and np.array_equal(state.Theta, Theta)
    assert (loss, method.record(state, ev)["grad_norm"]) == (ref_loss, float(np.sqrt(ref_grad_sq)))
    assert len(ev) == 2 and all(np.array_equal(D, ref_D) for D, ref_D in zip(ev, ref_ev))


@pytest.mark.parametrize("steps", [0, 5])
def test_sym_rgd_evaluate_matches_reference(steps):
    rng = np.random.default_rng(12)
    target = make_sym_target(50, 4, 10.0, rng)
    method = _PolarRGD(target, 1e-4, tied=True)
    f = _stepped(method, init_sym_factors(target, 20, rng), steps)
    state, loss, ev = method.evaluate(f)
    Theta, ref_loss, ref_grad_sq, ref_ev = polar_rgd_evaluate_reference(target, f)
    assert isinstance(state, SymFactors) and np.array_equal(state.Theta, Theta)
    assert (loss, method.record(state, ev)["grad_norm"]) == (ref_loss, float(np.sqrt(ref_grad_sq)))
    assert len(ev) == 1 and np.array_equal(ev[0], ref_ev[0])


def test_non_finite_series_fails_the_certificate(monkeypatch):
    X, D = _tangent_pair(50, 20, seed=4)
    eta = float(np.sqrt(ORDER_X[4] / np.linalg.norm(D.T @ D)))
    monkeypatch.setattr(stiefel, "_binomial_inv_sqrt", lambda K, n: np.full_like(K, np.nan))
    with pytest.raises(FeasibilityError, match=r"^retracted X is off St\(50,20\): .* = nan > 1\.0e-09 at eta = "):
        polar_retract(X, D, eta)


# (m, n, r) of the A1b, A6 and A5 settings
SWEPT_SHAPES = [(50, 50, 20), (64, 32, 24), (32, 32, 8)]


@pytest.mark.parametrize("m, n, r", SWEPT_SHAPES)
def test_bm_gd_evaluate_and_step_match_reference(m, n, r):
    rng = np.random.default_rng(21)
    target = make_target(m, n, 4, 100.0, rng)
    method = _BMGD(target, 1e-3)
    f = _stepped(method, init_bm_factors(target, r, rng), 5)
    state, loss, (G1, G2) = method.evaluate(f)
    ref_loss, ref_G1, ref_G2 = bm_gd_evaluate_reference(target, f)
    assert state is f and loss == ref_loss
    assert np.array_equal(G1, ref_G1) and np.array_equal(G2, ref_G2)
    stepped = method.step(f, (G1, G2), 5)
    ref_Z1, ref_Z2 = bm_gd_step_reference(f, G1, G2, 1e-3)
    assert isinstance(stepped, BMFactors)
    assert np.array_equal(stepped.Z1, ref_Z1) and np.array_equal(stepped.Z2, ref_Z2)


def _adapter(kind, m, n, r, steps=5):
    # an adapter state a few Adam steps from its initialization, so that Theta and Z2 are nonzero
    # and X, Y have left their Stiefel manifolds; the task is built with it
    rng = np.random.default_rng(22)
    task = make_whitened_task(m, n, 4 * n, 4, rng)
    init, make = {"polar": (init_adapter_state, _PolarLanding), "lora": (init_lora_state, _Lora)}[kind]
    state = init(task, r, rng)
    return task, _stepped(make(task, LandingConfig(eta=2e-2, lam=1e-3, max_iters=10), state), state, steps)


@pytest.mark.parametrize("m, n, r", SWEPT_SHAPES)
def test_landing_field_matches_reference(m, n, r):
    task, state = _adapter("polar", m, n, r)
    G_X, _, G_Y, _ = whitened_task_grads(task, state)
    for X, G in ((state.X, G_X), (state.Y, G_Y)):
        assert np.array_equal(landing_field(X, G, 1e-3), landing_field_reference(X, G, 1e-3))


@pytest.mark.parametrize("m, n, r", SWEPT_SHAPES)
def test_adapter_grads_match_reference(m, n, r):
    task, state = _adapter("polar", m, n, r)
    *grads, loss = whitened_task_grads(task, state)
    *ref_grads, ref_loss = whitened_task_grads_reference(task, state)
    assert loss == ref_loss and all(np.array_equal(G, ref) for G, ref in zip(grads, ref_grads))
    task, state = _adapter("lora", m, n, r)
    *grads, loss = lora_grads(task, state)
    *ref_grads, ref_loss = lora_grads_reference(task, state)
    assert loss == ref_loss and all(np.array_equal(G, ref) for G, ref in zip(grads, ref_grads))


@pytest.mark.parametrize("kind", ["polar", "lora"])
@pytest.mark.parametrize("m, n, r", SWEPT_SHAPES)
def test_adapter_trace_row_matches_reference(kind, m, n, r):
    _, state = _adapter(kind, m, n, r)
    assert _adapter_columns(state) == adapter_columns_reference(state)
    _, state = _adapter(kind, n, m, r)  # the wide DeltaW, whose smaller Gram matrix is W W^T
    assert _adapter_columns(state) == adapter_columns_reference(state)
