"""The in-place retraction, projection, sampler, RGD evaluations and
landing-step kernel reproduce their plain-expression references bit for
bit, and the retraction's certificate still fails on a non-finite output."""

import numpy as np
import pytest
from oracles import (
    polar_rgd_evaluate_reference,
    polar_retract_reference,
    sample_stiefel_uniform_reference,
    sym_rgd_evaluate_reference,
    tangent_project_reference,
)

from polarlab import stiefel
from polarlab.bench import ETA, LAM, BenchSpec, _make_kernel
from polarlab.exceptions import FeasibilityError
from polarlab.factorization import (
    PolarFactors,
    SymFactors,
    _PolarRGD,
    _SymRGD,
    init_polar_factors,
    init_sym_factors,
    make_sym_target,
    make_target,
)
from polarlab.landing import landing_field
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
    spec = BenchSpec(m=shape[0], r=shape[1], op="landing-step")
    rng = np.random.default_rng(6)
    X = sample_stiefel_uniform(*shape, rng)
    G = rng.standard_normal(shape)
    assert np.array_equal(_make_kernel(spec)(X, G), X - ETA * landing_field(X, G, LAM))


def _stepped(method, f, steps):
    # a few steps off the initial Theta = 0, so that the damped refresh reads a nonzero Theta
    for it in range(steps):
        f = advance(method, f, it)[0]
    return f


@pytest.mark.parametrize("gamma", [1.0, 0.5])
def test_polar_rgd_evaluate_matches_reference(gamma):
    rng = np.random.default_rng(11)
    target = make_target(50, 50, 4, 10.0, rng)
    method = _PolarRGD(target, 1e-3, gamma)
    f = _stepped(method, init_polar_factors(target, 20, rng), 5)
    state, loss, (grad_sq, E, F) = method.evaluate(f)
    Theta, ref_loss, ref_grad_sq, ref_E, ref_F = polar_rgd_evaluate_reference(target, f, gamma)
    assert isinstance(state, PolarFactors) and np.array_equal(state.Theta, Theta)
    assert (loss, grad_sq) == (ref_loss, ref_grad_sq)
    assert np.array_equal(E, ref_E) and np.array_equal(F, ref_F)


@pytest.mark.parametrize("gamma", [1.0, 0.5])
def test_sym_rgd_evaluate_matches_reference(gamma):
    rng = np.random.default_rng(12)
    target = make_sym_target(50, 4, 10.0, rng)
    method = _SymRGD(target, 1e-4, gamma)
    f = _stepped(method, init_sym_factors(target, 20, rng), 5)
    state, loss, (grad_sq, G) = method.evaluate(f)
    Theta, ref_loss, ref_grad_sq, ref_G = sym_rgd_evaluate_reference(target, f, gamma)
    assert isinstance(state, SymFactors) and np.array_equal(state.Theta, Theta)
    assert (loss, grad_sq) == (ref_loss, ref_grad_sq)
    assert np.array_equal(G, ref_G)


def test_non_finite_series_fails_the_certificate(monkeypatch):
    X, D = _tangent_pair(50, 20, seed=4)
    eta = float(np.sqrt(ORDER_X[4] / np.linalg.norm(D.T @ D)))
    monkeypatch.setattr(stiefel, "_binomial_inv_sqrt", lambda K, n: np.full_like(K, np.nan))
    with pytest.raises(FeasibilityError, match=r"^retracted X is off St\(50,20\): .* = nan > 1\.0e-09 at eta = "):
        polar_retract(X, D, eta)
