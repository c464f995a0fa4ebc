"""The three m x r kernels that A7 times, and the sampler that times them.

``landing-step`` is the landing update as ``train_polar_landing`` runs it,
the like-for-like counterpart of the ``retraction``; ``landing`` forms the
m x m Skew(G X^T) to measure the cost model's m^2 r term. Each op's output
is certified off the clock by ``benchmark/checks.py`` before it is timed.
Warm-up runs at most 10 calls or 100 ms. Each sample then times a batch of
about 100 ms, sized by the last warm-up call, on fresh inputs drawn off the
clock, so that neither timer resolution nor a short stall dominates it,
until the IQR falls below 15% of the median or ``max_samples`` is reached.
"""

import sys
import time
from pathlib import Path

import numpy as np

from polarlab.landing import grad_distance_to_stiefel, landing_field
from polarlab.stiefel import polar_retract, sample_stiefel_uniform, tangent_project

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmark"))
import checks  # noqa: E402

MIN_SAMPLES = 5
IQR_TARGET = 0.15
BATCH_TARGET_SECONDS = 0.1
WARMUP_MAX_CALLS = 10
# the kernels' step size and landing penalty, and the seed of their inputs
ETA, LAM, SEED = 1e-3, 1.0, 0


def materialized_landing(X, G):
    """The landing update through the m x m Skew(G X^T), deliberately not the reassociated form."""
    S = G @ X.T
    return X - ETA * ((0.5 * (S - S.T)) @ X + LAM * grad_distance_to_stiefel(X))


KERNELS = {
    "retraction": lambda X, D: polar_retract(X, D, ETA),
    # X - ETA * landing_field(X, G, LAM) in the field's buffer, with the bits of that expression
    "landing-step": lambda X, G: np.add(np.multiply(F := landing_field(X, G, LAM), -ETA, out=F), X, out=F),
    "landing": materialized_landing,
}


def _inputs(op: str, m: int, r: int, rng: np.random.Generator):
    X = sample_stiefel_uniform(m, r, rng)
    G = rng.standard_normal((m, r))
    return (X, tangent_project(X, G)) if op == "retraction" else (X, G)


def time_op(op: str, m: int, r: int, max_samples: int = 50) -> tuple[list, int]:
    """Microseconds per call of ``op`` at m x r, one value per sample, and the batch size.

    Raises ``AssertionError`` when the op's output fails its certificate.
    """
    rng = np.random.default_rng(SEED)
    kernel = KERNELS[op]
    X, D = _inputs(op, m, r, rng)
    if op == "retraction":
        problems = checks.retraction_output(X, D, ETA, kernel(X, D))
    else:
        problems = checks.landing_output(X, D, ETA, LAM, kernel(X, D), np.random.default_rng(SEED))
    if problems:
        raise AssertionError(f"{op} kernel at m={m}, r={r}: " + "; ".join(problems))

    inputs = _inputs(op, m, r, rng)
    start = time.perf_counter()
    for _ in range(WARMUP_MAX_CALLS):
        t0 = time.perf_counter()
        kernel(*inputs)
        t1 = time.perf_counter()
        if t1 - start >= BATCH_TARGET_SECONDS:
            break
    batch = max(1, int(BATCH_TARGET_SECONDS / max(t1 - t0, 1e-9)))

    samples = []
    while len(samples) < max_samples:
        inputs = _inputs(op, m, r, rng)
        t0 = time.perf_counter()
        for _ in range(batch):
            kernel(*inputs)
        samples.append((time.perf_counter() - t0) / batch * 1e6)
        if len(samples) >= MIN_SAMPLES:
            q75, q25 = np.percentile(samples, [75, 25])
            if (q75 - q25) / np.median(samples) < IQR_TARGET:
                break
    return samples, batch
