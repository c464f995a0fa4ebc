"""Tests of the kernel timing that A7 runs and of the certificates it reads.

Timing magnitudes are hardware-bound, so the assertions target the
sampler (sample counts, batch size, the IQR stopping rule) and the
certificates of ``benchmark/checks.py`` that every op passes before it is
timed.
"""

import numpy as np
import pytest

import kernel_timing
from kernel_timing import ETA, IQR_TARGET, LAM, MIN_SAMPLES, checks, time_op
from polarlab.landing import grad_distance_to_stiefel, landing_field
from polarlab.stiefel import polar_retract, sample_stiefel_uniform, tangent_project


def _follows_stopping_rule(samples, max_samples) -> bool:
    # sampling stops at the first count >= MIN_SAMPLES whose IQR is under
    # IQR_TARGET of the median, or at max_samples
    def stable(k):
        q75, q25 = np.percentile(samples[:k], [75, 25])
        return (q75 - q25) / np.median(samples[:k]) < IQR_TARGET

    n = len(samples)
    return (MIN_SAMPLES <= n <= max_samples and not any(stable(k) for k in range(MIN_SAMPLES, n))
            and (n == max_samples or stable(n)))


def test_median_micros_oracle():
    # at max_samples = MIN_SAMPLES the sampler takes exactly that many samples
    samples, _ = time_op("retraction", 16, 2, max_samples=MIN_SAMPLES)
    assert len(samples) == MIN_SAMPLES
    assert _follows_stopping_rule(samples, MIN_SAMPLES)


@pytest.mark.parametrize("op", ["retraction", "landing", "landing-step"])
def test_run_bench_smoke(op):
    samples, batch = time_op(op, 32, 4, max_samples=50)
    assert np.median(samples) > 0
    assert MIN_SAMPLES <= len(samples) <= 50
    assert batch >= 1
    assert _follows_stopping_rule(samples, 50)


def _pair(m, r, seed):
    rng = np.random.default_rng(seed)
    X = sample_stiefel_uniform(m, r, rng)
    return X, rng.standard_normal((m, r))


def test_verify_kernel_rejects_broken_output(monkeypatch):
    X, G = _pair(8, 2, 0)
    D = tangent_project(X, G)
    rng = np.random.default_rng(1)
    assert checks.retraction_output(X, D, ETA, polar_retract(X, D, ETA)) == []
    for out, problem in [(np.full((8, 2), np.nan), "non-finite"), (np.zeros((8, 3)), "is not a 8x2 array")]:
        assert problem in checks.retraction_output(X, D, ETA, out)[0]
        assert problem in checks.landing_output(X, G, ETA, LAM, out, rng)[0]
    # feasible but the polar factor of X + eta D, not of X - eta D
    assert "not the polar factor" in checks.retraction_output(X, D, ETA, polar_retract(X, -D, ETA))[0]
    # the sampler certifies before it times
    monkeypatch.setitem(kernel_timing.KERNELS, "landing", lambda X, G: np.full_like(X, np.nan))
    with pytest.raises(AssertionError, match="landing kernel at m=8, r=2: output has non-finite entries"):
        time_op("landing", 8, 2, max_samples=MIN_SAMPLES)


def test_verify_kernel_certifies_landing_step_field():
    X, G = _pair(16, 3, 0)
    rng = np.random.default_rng(1)
    for op in "landing-step", "landing":
        assert checks.landing_output(X, G, ETA, LAM, kernel_timing.KERNELS[op](X, G), rng) == []
    # finite and well-shaped but wrong: the skew term's sign flipped, the
    # raw Euclidean gradient in place of the skew term, the field doubled
    wrong = [
        X + ETA * (landing_field(X, G, 0.0) - LAM * grad_distance_to_stiefel(X)),
        X - ETA * (G + LAM * grad_distance_to_stiefel(X)),
        X - 2.0 * ETA * landing_field(X, G, LAM),
    ]
    for out in wrong:
        problems = checks.landing_output(X, G, ETA, LAM, out, rng)
        assert len(problems) == 1 and problems[0].startswith("landing step differs from the landing field update")
