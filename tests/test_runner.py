"""Tests for the shared optimization loop and the rules it applies to every optimizer.

A toy method pins the loop itself: when it evaluates, steps and records,
and what it writes into the metadata. The five public runners are then
checked for their one interface, (trace, state) with the metadata that
``factorization._run`` builds for all of them, for the budget and cadence
checks, which their configs (``RGDConfig``, ``LandingConfig``) make when
they are built, and for the divergence rule, which ``run`` owns for all of
them.
"""

import math
import re

import numpy as np
import pytest

from polarlab import factorization as fx
from polarlab import landing as ld
from polarlab.config import LandingConfig, RGDConfig
from polarlab.exceptions import DivergenceError
from polarlab.runner import DIVERGENCE_LOSS, advance, run
from polarlab.trace import RunTrace


class _Halving:
    """x -> x / 2 with loss x^2; its row reports the step it took."""

    name = "halving"

    def __init__(self):
        self.steps = []

    def evaluate(self, x):
        return x, x * x, {}

    def step(self, x, ev, it):
        self.steps.append(it)
        ev["taken"] = x / 2
        return x / 2

    def record(self, x, ev):
        return {"step": ev.get("taken", math.nan)}


def test_run_records_after_each_step_and_evaluates_the_final_state():
    method = _Halving()
    trace, x = run(method, 1.0, {"seed": 0}, max_iters=10, record_every=4)
    assert method.steps == list(range(10))
    assert x == 2.0**-10
    assert trace.columns["iter"] == [0, 4, 8, 10]
    assert trace.columns["loss"] == [1.0, 2.0**-8, 2.0**-16, 2.0**-20]
    # a recorded row sees the step of its iteration; the final state takes none
    assert trace.columns["step"][:3] == [0.5, 2.0**-5, 2.0**-9]
    assert math.isnan(trace.columns["step"][3])
    assert trace.metadata == {"seed": 0, "max_iters": 10, "record_every": 4, "final_loss": 2.0**-20}
    assert trace.wall_time > 0.0  # on the trace, not in the metadata that checkpoints copy


def test_run_stops_at_the_threshold_without_stepping():
    method = _Halving()
    trace, x = run(method, 1.0, {}, max_iters=10, record_every=4, loss_threshold=2.0**-10)
    assert method.steps == [0, 1, 2, 3, 4]
    assert x == 2.0**-5
    assert trace.columns["iter"] == [0, 4, 5]
    assert trace.metadata["converged"] is True
    assert trace.metadata["iterations"] == 5
    assert trace.metadata["loss_threshold"] == 2.0**-10


@pytest.mark.parametrize("max_iters, converged", [(4, False), (5, True), (0, False)])
def test_run_judges_the_state_after_the_last_step_against_the_threshold(max_iters, converged):
    trace, _ = run(_Halving(), 1.0, {}, max_iters=max_iters, record_every=1, loss_threshold=2.0**-10)
    assert trace.metadata["converged"] is converged
    assert trace.metadata["iterations"] == max_iters
    assert trace.columns["iter"] == list(range(max_iters + 1))


def test_advance_applies_the_divergence_rule():
    assert advance(_Halving(), 3.0, 7) == (1.5, 9.0)
    # a single step has no earlier loss to name
    with pytest.raises(DivergenceError, match="^halving diverged at iteration 7: loss = 4\\.000e\\+12$"):
        advance(_Halving(), 2e6, 7)
    with pytest.raises(DivergenceError, match="loss = nan"):
        advance(_Halving(), math.nan, 0)
    advance(_Halving(), math.sqrt(DIVERGENCE_LOSS) * (1 - 1e-15), 0)


def _target(kappa=2.0):
    return fx.make_target(10, 10, 2, kappa, np.random.default_rng(3))


def _sym_target(kappa=2.0):
    return fx.make_sym_target(10, 2, kappa, np.random.default_rng(3))


def _task():
    return fx.make_whitened_task(12, 10, 20, 2, np.random.default_rng(0), kappa=3.0)


# name -> call(eta, kappa, max_iters, record_every); kappa only scales the factorization targets
RUNNERS = {
    "polar-rgd": lambda eta, kappa, n, every: fx.run_polar_rgd(
        _target(kappa), 4, RGDConfig(eta=eta, seed=0, max_iters=n, record_every=every)
    ),
    "bm-gd": lambda eta, kappa, n, every: fx.run_bm_gd(
        _target(kappa), 4, RGDConfig(eta=eta, seed=0, max_iters=n, record_every=every)
    ),
    "polar-rgd-sym": lambda eta, kappa, n, every: fx.run_sym_rgd(
        _sym_target(kappa), 4, RGDConfig(eta=eta, seed=0, max_iters=n, record_every=every)
    ),
    "landing-polar": lambda eta, kappa, n, every: ld.train_polar_landing(
        _task(), 4, LandingConfig(eta=eta, max_iters=n, record_every=every)
    ),
    "lora": lambda eta, kappa, n, every: ld.train_lora(
        _task(), 4, LandingConfig(eta=eta, max_iters=n, record_every=every)
    ),
}


@pytest.mark.parametrize("name", RUNNERS)
@pytest.mark.parametrize(
    "max_iters, record_every, message",
    [(-3, 10, "max_iters must be >= 0, got -3"), (10, 0, "record_every must be >= 1, got 0")],
)
def test_every_runner_rejects_a_negative_budget_and_a_zero_cadence(name, max_iters, record_every, message):
    with pytest.raises(ValueError, match=message):
        RUNNERS[name](1e-2, 2.0, max_iters, record_every)


# name -> (kind of the returned state, the trace's metadata keys in order): the keys every run
# records, then the adapters' own, then those run adds; the RGD runners also pass a loss threshold
_RUN_KEYS = ("seed", "eta", "m", "n", "r", "r_A", "kappa")
_FACTOR_KEYS = (*_RUN_KEYS, "max_iters", "record_every", "final_loss", "loss_threshold", "converged", "iterations")
_ADAPTER_KEYS = (*_RUN_KEYS, "lam", "method", "max_iters", "record_every", "final_loss")
INTERFACE = {
    "polar-rgd": ("polar-factors", _FACTOR_KEYS),
    "bm-gd": ("bm-factors", _FACTOR_KEYS),
    "polar-rgd-sym": ("sym-factors", _FACTOR_KEYS),
    "landing-polar": ("polar-adapter", _ADAPTER_KEYS),
    "lora": ("lora", _ADAPTER_KEYS),
}


@pytest.mark.parametrize("name", RUNNERS)
def test_every_runner_returns_its_trace_then_its_state(name):
    kind, keys = INTERFACE[name]
    trace, state = RUNNERS[name](1e-2, 2.0, 10, 5)
    assert isinstance(trace, RunTrace) and trace.algorithm == name
    assert state.kind == kind
    assert tuple(trace.metadata) == keys
    assert trace.metadata["r"] == state.r == 4 and "gamma" not in trace.metadata
    if keys == _ADAPTER_KEYS:
        assert trace.metadata["method"] == name


# (eta, kappa): the RGD losses are bounded on the manifold, so their targets are scaled past the limit
DIVERGING = {
    "polar-rgd": (1e-3, 1e7),
    "bm-gd": (50.0, 2.0),
    "polar-rgd-sym": (1e-3, 1e7),
    "landing-polar": (50.0, 2.0),
    "lora": (1e3, 2.0),
}


@pytest.mark.parametrize("name", RUNNERS)
def test_every_runner_raises_divergence_error_naming_itself_and_the_iteration(name):
    eta, kappa = DIVERGING[name]
    with pytest.raises(DivergenceError) as info:
        RUNNERS[name](eta, kappa, 200, 10)
    pattern = rf"{name} diverged at iteration (\d+): loss = \S+(?:; last loss within the limit = (\S+) at iteration (\d+))?"
    match = re.fullmatch(pattern, str(info.value))
    assert match, str(info.value)
    it, last_loss, last_it = match.groups()
    if it == "0":  # the scaled RGD targets put the first loss past the limit, before any step
        assert last_loss is None
    else:
        assert int(last_it) == int(it) - 1 and float(last_loss) <= DIVERGENCE_LOSS


class _Doubling(_Halving):
    """x -> 2 x with loss x^2."""

    name = "doubling"

    def step(self, x, ev, it):
        return 2 * x


@pytest.mark.parametrize("x0, message", [
    (1e5, "doubling diverged at iteration 4: loss = 2.560e+12; last loss within the limit = 6.400e+11 at iteration 3"),
    (2e6, "doubling diverged at iteration 0: loss = 4.000e+12"),
    (math.inf, "doubling diverged at iteration 0: loss = inf"),
])
def test_run_names_the_last_loss_within_the_limit(x0, message):
    with pytest.raises(DivergenceError) as info:
        run(_Doubling(), x0, {}, max_iters=10, record_every=1)
    assert str(info.value) == message


def _arrays(ev) -> dict:
    """Every array in ``ev``, an array or a nest of tuples and dicts of them, by its path."""
    if isinstance(ev, np.ndarray):
        return {(): ev}
    items = ev.items() if isinstance(ev, dict) else enumerate(ev)
    return {(key, *path): a for key, value in items for path, a in _arrays(value).items()}


def _method_and_state(name):
    """The method object of optimizer ``name`` with its initial state."""
    rng = np.random.default_rng(4)
    if name in ("polar-rgd", "bm-gd"):
        target = _target()
        if name == "bm-gd":
            return fx._BMGD(target, 1e-2), fx.init_bm_factors(target, 4, rng)
        return fx._PolarRGD(target, 1e-2), fx.init_polar_factors(target, 4, rng)
    if name == "polar-rgd-sym":
        target = _sym_target()
        return fx._PolarRGD(target, 1e-2, tied=True), fx.init_sym_factors(target, 4, rng)
    task, cfg = _task(), LandingConfig(eta=1e-2, max_iters=10)
    init, make = {"landing-polar": (ld.init_adapter_state, ld._PolarLanding), "lora": (ld.init_lora_state, ld._Lora)}[name]
    state = init(task, 4, rng)
    return make(task, cfg, state), state


@pytest.mark.parametrize("name", RUNNERS)
def test_a_step_leaves_every_array_of_its_ev_unchanged(name):
    # run records the row of an iteration after its step, from the same ev: a step that wrote
    # an ev array in place (say, a gradient scaled by -eta) would corrupt that row's grad_norm
    method, state = _method_and_state(name)
    assert method.name == name
    for it in range(3):
        state, _, ev = method.evaluate(state)
        before = {path: a.copy() for path, a in _arrays(ev).items()}
        assert before
        stepped = method.step(state, ev, it)
        after = _arrays(ev)
        for path, a in before.items():
            assert np.array_equal(after[path], a), path
        state = stepped
