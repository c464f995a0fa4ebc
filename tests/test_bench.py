"""Tests for the manifold-kernel microbenchmark plumbing.

Timing magnitudes are hardware-bound, so the assertions target the
estimator (median, IQR stopping rule), the spec validation and the
kernel verification hook. The medians across benchmark runs come from
``tools/collect_bench.py``.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from polarlab.bench import (
    ETA,
    LAM,
    BenchSpec,
    _verify_kernel,
    run_bench,
)
from polarlab.landing import grad_distance_to_stiefel, landing_field


def _collect_bench():
    spec = importlib.util.spec_from_file_location(
        "collect_bench", Path(__file__).resolve().parent.parent / "tools" / "collect_bench.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_median_micros_oracle():
    # the reported median and IQR are those of the samples the result carries
    res = run_bench(BenchSpec(m=16, r=2, op="retraction", max_samples=5))
    assert len(res.samples) == 5
    assert res.median_micros == sorted(res.samples)[2]
    q75, q25 = np.percentile(res.samples, [75, 25])
    assert res.iqr_over_median == pytest.approx((q75 - q25) / res.median_micros, rel=1e-12)


@pytest.mark.parametrize("seed", range(10))
def test_median_monotone_under_union(seed):
    # appending runs that all sit at or above the current median can never
    # lower the median a BENCH file records; dually for runs below
    summary = _collect_bench().summary
    rng = np.random.default_rng(seed)
    a = list(rng.uniform(1.0, 2.0, size=rng.integers(1, 20)))
    med_a = summary(a)["median"]
    high = list(rng.uniform(med_a, med_a + 5.0, size=rng.integers(1, 20)))
    low = list(rng.uniform(med_a - 1.0, med_a, size=rng.integers(1, 20)))
    assert summary(a + high)["median"] >= med_a
    assert summary(a + low)["median"] <= med_a


def test_bench_spec_validation():
    with pytest.raises(ValueError, match="unknown op"):
        BenchSpec(m=16, r=4, op="qr")
    with pytest.raises(ValueError, match="r <= m"):
        BenchSpec(m=16, r=32, op="landing")
    with pytest.raises(ValueError, match="r <= m"):
        BenchSpec(m=16, r=0, op="retraction")


@pytest.mark.parametrize("op", ["retraction", "landing", "landing-step"])
def test_run_bench_smoke(op):
    res = run_bench(BenchSpec(m=32, r=4, op=op, max_samples=50))
    assert res.median_micros > 0
    assert len(res.samples) >= 5
    assert res.stable is True
    assert res.iqr_over_median <= 0.15
    assert res.metadata["n_samples"] == len(res.samples)
    assert res.metadata["batch"] >= 1


def test_verify_kernel_rejects_broken_output():
    spec = BenchSpec(m=8, r=2, op="landing")
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="invalid output"):
        _verify_kernel(spec, lambda X, G: np.full((8, 2), np.nan), rng)
    with pytest.raises(ValueError, match="invalid output"):
        _verify_kernel(spec, lambda X, G: np.zeros((8, 3)), rng)


def test_verify_kernel_certifies_landing_step_field():
    spec = BenchSpec(m=16, r=3, op="landing-step")
    eta, lam = ETA, LAM
    _verify_kernel(spec, lambda X, G: X - eta * landing_field(X, G, lam), np.random.default_rng(0))
    # finite and well-shaped but wrong: the skew term's sign flipped, the
    # raw Euclidean gradient in place of the skew term, the field doubled
    wrong = [
        lambda X, G: X + eta * (landing_field(X, G, 0.0) - lam * grad_distance_to_stiefel(X)),
        lambda X, G: X - eta * (G + lam * grad_distance_to_stiefel(X)),
        lambda X, G: X - 2.0 * eta * landing_field(X, G, lam),
    ]
    for kernel in wrong:
        with pytest.raises(ValueError, match="materialized landing field"):
            _verify_kernel(spec, kernel, np.random.default_rng(1))
