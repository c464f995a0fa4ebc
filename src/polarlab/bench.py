"""Microbenchmarks for the per-iteration manifold kernels.

Three operations are timed at matched shapes (m x r):

* ``retraction``: the polar retraction step with its tangency check and
  feasibility certificate: four m x r x r products (X^T D, D^T D, the
  step and the certificate's X^T X), cost about 8 m r^2, plus an r x r
  inverse square root in O(r^3). That comes from a binomial series of at
  most 12 terms when the Frobenius norm or the 1-norm of eta^2 D^T D is
  small enough, as for the default eta at m = 4096 (order 10 at r = 32,
  9 at r = 256), and from an eigendecomposition otherwise.
* ``landing-step``: the landing update X - eta * Gamma(X) exactly as
  ``train_polar_landing`` runs it, through ``landing_field``: four
  m x r x r products, cost about 8 m r^2 + O(r^3). This is the
  like-for-like counterpart of the retraction.
* ``landing``: the same update with the skew term materialized as the
  m x m matrix Skew(G X^T), cost about 2 m^2 r + O(m r^2). No training
  loop runs this form; it is kept so the cost model's m^2 r term, and
  its near-linear growth in r, can be measured on its own.

Before timing, every kernel runs once off the clock and its output is
checked: the retraction must land on the manifold, and the landing step
must match the materialized formula to 1e-10 relative, so a wrong field
cannot win a comparison.

The kernel then warms up for at most 10 calls, stopping once 100 ms have
passed. Each sample draws fresh inputs outside the clock; a kernel under
100 ms, as the last warm-up call timed it, runs in a batch inside one clock read, so that neither timer resolution
nor a short stall of a shared machine dominates a sample. Sampling stops
once the IQR falls below 15% of the median or the budget is exhausted.
:func:`run_bench` times one op at one shape; the A7 acceptance tests call
it per rank, and ``benchmark/run.py --workload kernels-4096`` covers the
m = 4096 rank sweep.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .landing import grad_distance_to_stiefel, landing_field
from .stiefel import require_stiefel, sample_stiefel_uniform, skew_part, tangent_project

OPS = ("retraction", "landing", "landing-step")

MIN_SAMPLES = 5
IQR_TARGET = 0.15
BATCH_TARGET_SECONDS = 0.1
WARMUP_MAX_CALLS = 10
LANDING_STEP_RTOL = 1e-10
# the kernels' step size and landing penalty, and the seed of their inputs
ETA = 1e-3
LAM = 1.0
SEED = 0


@dataclass(frozen=True)
class BenchSpec:
    """One benchmark point: operation, shape and sampling budget."""

    m: int
    r: int
    op: str
    max_samples: int = 50

    def __post_init__(self):
        if self.op not in OPS:
            raise ValueError(f"unknown op {self.op!r}, expected one of {OPS}")
        if not (0 < self.r <= self.m):
            raise ValueError(f"need 0 < r <= m, got m={self.m}, r={self.r}")


@dataclass(frozen=True)
class BenchResult:
    """Median timing plus the raw samples and stability of the estimate."""

    spec: BenchSpec
    median_micros: float
    samples: tuple
    iqr_over_median: float
    stable: bool
    metadata: dict = field(default_factory=dict)


def _fresh_inputs(spec: BenchSpec, rng: np.random.Generator):
    X = sample_stiefel_uniform(spec.m, spec.r, rng)
    G = rng.standard_normal((spec.m, spec.r))
    if spec.op == "retraction":
        return X, tangent_project(X, G)
    return X, G


def _make_kernel(spec: BenchSpec):
    from .stiefel import polar_retract

    if spec.op == "retraction":
        return lambda X, D: polar_retract(X, D, ETA)
    if spec.op == "landing-step":  # X - eta Gamma in the field's own buffer, with the bits of X - eta * Gamma
        return lambda X, G: np.add(np.multiply(F := landing_field(X, G, LAM), -ETA, out=F), X, out=F)
    # materialized skew, deliberately not the reassociated O(m r^2) form
    return lambda X, G: X - ETA * _materialized_landing_field(X, G, LAM)


def _materialized_landing_field(X, G, lam: float) -> np.ndarray:
    return skew_part(G @ X.T) @ X + lam * grad_distance_to_stiefel(X)


def _verify_kernel(spec: BenchSpec, kernel, rng) -> None:
    # run once off the clock and sanity-check the output before timing
    X, D = _fresh_inputs(spec, rng)
    out = kernel(X, D)
    if out.shape != (spec.m, spec.r) or not np.all(np.isfinite(out)):
        raise ValueError(f"{spec.op} kernel produced an invalid output at m={spec.m}, r={spec.r}")
    if spec.op == "retraction":
        require_stiefel(out, name="retraction output")
    elif spec.op == "landing-step":
        step = ETA * _materialized_landing_field(X, D, LAM)
        err = float(np.linalg.norm((X - out) - step)) / float(np.linalg.norm(step))
        if not err <= LANDING_STEP_RTOL:
            raise ValueError(
                f"landing-step kernel differs from the materialized landing field at "
                f"m={spec.m}, r={spec.r}: relative error {err:.3e}"
            )


def run_bench(spec: BenchSpec) -> BenchResult:
    """Time one kernel at one shape until the median estimate stabilizes."""
    rng = np.random.default_rng(SEED)
    kernel = _make_kernel(spec)
    _verify_kernel(spec, kernel, rng)

    # warm up until WARMUP_MAX_CALLS calls or BATCH_TARGET_SECONDS, then size a ~100 ms batch from the last call
    inputs = _fresh_inputs(spec, rng)
    start = time.perf_counter()
    for _ in range(WARMUP_MAX_CALLS):
        t0 = time.perf_counter()
        kernel(*inputs)
        t1 = time.perf_counter()
        if t1 - start >= BATCH_TARGET_SECONDS:
            break
    batch = max(1, int(BATCH_TARGET_SECONDS / max(t1 - t0, 1e-9)))

    samples: list[float] = []
    stable = False
    while len(samples) < spec.max_samples:
        inputs = _fresh_inputs(spec, rng)
        t0 = time.perf_counter()
        for _ in range(batch):
            kernel(*inputs)
        elapsed = time.perf_counter() - t0
        samples.append(elapsed / batch * 1e6)
        if len(samples) >= MIN_SAMPLES:
            med = float(np.median(samples))
            q75, q25 = np.percentile(samples, [75, 25])
            if (q75 - q25) / med < IQR_TARGET:
                stable = True
                break
    med = float(np.median(samples))
    q75, q25 = np.percentile(samples, [75, 25])
    return BenchResult(
        spec=spec,
        median_micros=med,
        samples=tuple(samples),
        iqr_over_median=float((q75 - q25) / med),
        stable=stable,
        metadata={"batch": batch, "n_samples": len(samples)},
    )
