"""One optimization loop for every optimizer in the package.

An optimizer is a method object with a ``name`` and three operations:

* ``evaluate(state) -> (state, loss, ev)``: the loss at ``state`` and what
  the step and the trace row need. The returned state may be refreshed (the
  RGD methods refresh Theta in closed form); it is the one recorded,
  stepped from and returned.
* ``step(state, ev, it) -> state``: the update of iteration ``it``. It may
  add to ``ev`` what the trace row reports about the step taken.
* ``record(state, ev) -> columns``: the trace row's columns besides iter
  and loss, by name (see :mod:`polarlab.trace`).

:func:`run` owns the budget, the loss threshold, the divergence rule (a
non-finite loss or one above ``DIVERGENCE_LOSS`` raises DivergenceError,
whose message names the last loss within the limit and its iteration),
the trace rows, each written after the step of its iteration, the
evaluation of the state after the last step, whose row reports no step, and
the run's wall clock, one number on the trace (``trace.wall_time``). It
names the method and the iteration in a FeasibilityError that a step raises.
The five public runners reach it through ``factorization._run``, which builds
their metadata, and return what it returns: (trace, final state).
:func:`advance` is the single step: one iteration of the same method object
under the same divergence rule, with no trace.
"""

from __future__ import annotations

import math
import time

from .exceptions import DivergenceError, FeasibilityError
from .trace import RunTrace

DIVERGENCE_LOSS = 1e12


def _check_loss(loss: float, name: str, it: int, last: tuple | None = None) -> None:
    """The divergence rule; ``last`` is (iteration, loss) of the last loss that passed it, if any."""
    if not math.isfinite(loss) or loss > DIVERGENCE_LOSS:
        since = "" if last is None else f"; last loss within the limit = {last[1]:.3e} at iteration {last[0]}"
        raise DivergenceError(f"{name} diverged at iteration {it}: loss = {loss:.3e}{since}")


def advance(method, state, it: int):
    """One iteration outside :func:`run`: evaluate, the divergence rule, then
    the step. Returns (next state, loss at the evaluated state)."""
    state, loss, ev = method.evaluate(state)
    _check_loss(loss, method.name, it)
    return method.step(state, ev, it), loss


def run(method, state, metadata: dict, max_iters: int, record_every: int, loss_threshold: float | None = None):
    """Iterate ``method`` from ``state`` for at most ``max_iters`` steps; returns (trace, final state).

    The trace's metadata is ``metadata`` plus the run's settings and final
    loss; the seconds the run took go in ``trace.wall_time``, not in the
    metadata, which checkpoints copy. With a ``loss_threshold`` the run stops at the first evaluated
    state at or below it, ``converged`` says whether it did and
    ``iterations`` is the stopping iteration (``max_iters`` when the budget
    ran out); without one the whole budget runs. The configs of
    :mod:`polarlab.config` ensure ``max_iters >= 0`` and ``record_every >= 1``.
    """
    trace = RunTrace(algorithm=method.name, metadata=metadata)
    t0 = time.perf_counter()
    last = None
    for it in range(max_iters + 1):
        state, loss, ev = method.evaluate(state)
        _check_loss(loss, method.name, it, last)
        last = it, loss
        converged = loss_threshold is not None and loss <= loss_threshold
        if converged or it == max_iters:
            trace.append(it, loss, **method.record(state, ev))
            break
        try:
            stepped = method.step(state, ev, it)
        except FeasibilityError as exc:  # a failed retraction: say where
            raise FeasibilityError(f"{exc} ({method.name}, iteration {it})") from exc
        if it % record_every == 0:
            trace.append(it, loss, **method.record(state, ev))
        state = stepped
    trace.wall_time = time.perf_counter() - t0
    trace.metadata.update(max_iters=max_iters, record_every=record_every, final_loss=trace.final_loss)
    if loss_threshold is not None:
        trace.metadata.update(loss_threshold=loss_threshold, converged=converged, iterations=it)
    return trace, state
