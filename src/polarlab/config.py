"""The settings of each method family, declared once.

``RGDConfig`` drives the three factorization runners and ``LandingConfig``
the two adapter trainers. Each field's default is the default of the API
and of the CLI flag of the same name, and ``__post_init__`` checks every
range, so a bad setting fails when the config is built, before any run.

Only the standard library is imported here: ``polarlab.cli`` derives its
schemas from these classes at load time, before numpy may be imported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


def _check_budget(max_iters: int, record_every: int) -> None:
    if max_iters < 0:
        raise ValueError(f"max_iters must be >= 0, got {max_iters}")
    if record_every < 1:
        raise ValueError(f"record_every must be >= 1, got {record_every}")


def check_loss_threshold(loss_threshold: float) -> None:
    """A NaN threshold is met by no loss, so a run would spend its whole budget."""
    if math.isnan(loss_threshold):
        raise ValueError(f"loss_threshold must be a number, got {loss_threshold}")


def _check_seed(seed: int) -> None:
    if seed < 0:  # numpy's own error for it names no setting
        raise ValueError(f"seed must be >= 0, got {seed}")


def _check_positive(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and positive, got {name} = {value}")


@dataclass(frozen=True)
class RGDConfig:
    """Settings of ``run_polar_rgd``, ``run_bm_gd`` and ``run_sym_rgd``.

    A run stops at the first loss at or below ``loss_threshold`` or after
    ``max_iters`` steps, and records every ``record_every``-th iteration.
    """

    eta: float = 1e-3
    seed: int = 0
    max_iters: int = 100_000
    loss_threshold: float = 1e-8
    record_every: int = 100

    def __post_init__(self):
        _check_budget(self.max_iters, self.record_every)
        _check_seed(self.seed)
        _check_positive("eta", self.eta)
        check_loss_threshold(self.loss_threshold)


@dataclass(frozen=True)
class LandingConfig:
    """Settings of ``train_polar_landing`` and ``train_lora``.

    ``schedule`` is "constant", a step of ``eta`` throughout, or "linear",
    a step of ``eta * (1 - t / max_iters)`` at iteration t, positive for
    t < max_iters. ``grad_mode="euclidean"`` replaces the landing field by
    the raw loss gradient plus the same penalty; the LoRA trainer has no
    field and ignores it. Adam uses ADAM_BETA1, ADAM_BETA2 and ADAM_EPS of
    ``polarlab.landing``, and both adapters scale DeltaW by its constant
    ADAPTER_ALPHA / r.
    """

    lam: float = 1e-3
    eta: float = 1e-2
    schedule: str = "constant"
    max_iters: int = 2000
    seed: int = 0
    record_every: int = 10
    grad_mode: str = "landing"

    def __post_init__(self):
        _check_positive("lam", self.lam)
        if self.schedule not in ("constant", "linear"):
            raise ValueError(f"unknown schedule {self.schedule!r} (expected constant or linear)")
        if self.schedule == "linear" and self.max_iters < 1:
            raise ValueError(f"a linear schedule needs max_iters >= 1, got {self.max_iters}")
        if self.grad_mode not in ("landing", "euclidean"):
            raise ValueError(f"unknown grad_mode {self.grad_mode!r}")
        _check_budget(self.max_iters, self.record_every)
        _check_seed(self.seed)
        _check_positive("eta", self.eta)

    def eta_at(self, t: int) -> float:
        eta = self.eta * (1.0 - t / self.max_iters) if self.schedule == "linear" else self.eta
        if not (math.isfinite(eta) and eta > 0):
            raise ValueError(f"schedule returned a non-positive step at t={t}: {eta}")
        return float(eta)
