"""Property test of the binomial series order that polar_retract selects.

For symmetric positive semidefinite K (well-conditioned, ill-conditioned
and rank-deficient spectra), the order n chosen from ||K||_F and ||K||_1
must meet the truncation bound c_n l^n / (1 - l) <= 2^-53 at the true
spectral norm l = lambda_max(K), and the truncated series must match the
eigendecomposition formula Q diag((1 + w)^{-1/2}) Q^T.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from polarlab.stiefel import _BINOMIAL_COEFFS, UNIT_ROUNDOFF, _binomial_inv_sqrt, _series_order

# lambda_max from eigvalsh carries a relative rounding error of a few r eps, so the bound at it may
# exceed the bound at the norm that chose n by that much when the two coincide (rank one)
BOUND_SLACK = 1e-12
# series against eigh formula, relative in the Frobenius norm: both are accurate to about r eps, r <= 32
SERIES_RTOL = 1e-13


def _psd(r: int, kind: str, lam_max: float, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    Q = np.linalg.qr(rng.standard_normal((r, r)))[0]
    if kind == "well-conditioned":
        w = rng.uniform(0.5, 1.0, r)
    elif kind == "ill-conditioned":
        w = np.logspace(0.0, -12.0, r)
    else:  # rank-deficient: rank r // 2, at least 1
        w = np.zeros(r)
        w[: max(1, r // 2)] = rng.uniform(0.1, 1.0, max(1, r // 2))
    K = (Q * (lam_max * w / w.max())) @ Q.T
    return 0.5 * (K + K.T)


@settings(max_examples=300, deadline=None)
@given(
    r=st.integers(1, 32),
    kind=st.sampled_from(["well-conditioned", "ill-conditioned", "rank-deficient"]),
    log_lam=st.floats(-18.0, np.log10(0.45)),
    seed=st.integers(0, 2**32 - 1),
)
def test_series_order_meets_its_bound_at_the_spectral_norm(r, kind, log_lam, seed):
    K = _psd(r, kind, 10.0**log_lam, seed)
    n = _series_order(K)
    if n is None:
        # eigh runs; neither ||K||_F nor ||K||_1 admits an order up to the cap
        return
    w, Q = np.linalg.eigh(K)
    lam = max(float(np.linalg.eigvalsh(K)[-1]), 0.0)
    assert _BINOMIAL_COEFFS[n] * lam**n / (1.0 - lam) <= UNIT_ROUNDOFF * (1.0 + BOUND_SLACK)
    ref = (Q * (1.0 / np.sqrt(1.0 + w))) @ Q.T
    S = np.eye(r) if n == 1 else _binomial_inv_sqrt(K, n)
    assert np.linalg.norm(S - ref) <= SERIES_RTOL * np.linalg.norm(ref)
