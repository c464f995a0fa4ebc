"""Oracle and property tests for the manifold primitives and diagnostics.

Closed-form oracle values are derived by hand and frozen; the retraction
is cross-checked against the polar factor of independent SVD and
eigendecomposition routes rather than against itself.
"""

import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from polarlab.exceptions import FeasibilityError, RankDeficientError
from polarlab.stiefel import (
    _BINOMIAL_COEFFS,
    RETRACT_SERIES_MAX_ORDER,
    TANGENCY_TOL,
    UNIT_ROUNDOFF,
    _eye,
    alignment,
    distance_to_stiefel,
    pairwise_direction_distances,
    polar_retract,
    require_stiefel,
    retract_series_order,
    sample_stiefel_uniform,
    stable_rank,
    stiefel_error,
    tangent_project,
)

from oracles import polar_factor, tangency_residual_reference

SEEDS = [0, 1, 2, 3, 4, 5, 6, 7]


# ---------------------------------------------------------------------------
# sampling


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("shape", [(5, 2), (12, 12), (40, 7)])
def test_sample_stiefel_uniform_is_feasible(seed, shape):
    m, r = shape
    X = sample_stiefel_uniform(m, r, np.random.default_rng(seed))
    assert X.shape == (m, r)
    assert stiefel_error(X) <= 1e-10


def test_sample_stiefel_uniform_is_deterministic():
    a = sample_stiefel_uniform(9, 3, np.random.default_rng(42))
    b = sample_stiefel_uniform(9, 3, np.random.default_rng(42))
    assert np.array_equal(a, b)


def test_sample_stiefel_uniform_rejects_wide():
    with pytest.raises(ValueError):
        sample_stiefel_uniform(3, 5, np.random.default_rng(0))


@pytest.mark.parametrize("seed", range(4))
def test_gram_residuals_match_the_identity_matrix_forms(seed):
    # the residual subtracts 1 on the diagonal in place; off it, g - 0.0 is exact
    rng = np.random.default_rng(seed)
    for m, r in ((7, 1), (30, 6), (50, 20)):
        for X in (sample_stiefel_uniform(m, r, rng) + 1e-7 * rng.standard_normal((m, r)), rng.standard_normal((m, r))):
            gap = X.T @ X - np.eye(r)
            assert stiefel_error(X) == float(np.linalg.norm(gap))
            assert distance_to_stiefel(X) == float(np.sum(gap * gap))


def test_identity_per_rank_is_shared_and_refuses_writes():
    eye = _eye(5)
    assert _eye(5) is eye and np.array_equal(eye, np.eye(5))
    with pytest.raises(ValueError, match="read-only"):
        eye[0, 0] = 2.0
    with pytest.raises(ValueError, match="read-only"):
        np.subtract(eye, eye, out=eye)


@pytest.mark.parametrize("r", [1, 4, 9])
def test_identity_subtraction_keeps_the_bits_of_a_strided_update(r):
    # off the diagonal g - 0.0 returns g's bits, -0.0, inf and a NaN's sign and payload included
    rng = np.random.default_rng(r)
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 1.0, -1.0, 5e-324, 1e308])
    for _ in range(20):
        G = np.where(rng.random((r, r)) < 0.6, rng.choice(special, (r, r)), rng.standard_normal((r, r)))
        strided = G.copy()
        strided.ravel()[:: r + 1] -= 1.0
        subtracted = G.copy()
        np.subtract(subtracted, _eye(r), out=subtracted)
        assert subtracted.tobytes() == strided.tobytes()


# ---------------------------------------------------------------------------
# polar decomposition Z = X Theta: the retraction returns the factor X of
# Z = X0 - eta D, and the sampler that of a Gaussian Z


def _polar_pair(Z, X):
    # Theta = X^T Z completes the pair when X is the polar factor of Z
    return X, X.T @ Z


def test_polar_decompose_axis_oracle():
    # X0 = e1, D = e2, eta = 0.05: Z = (1, -eta) has direction Z / |Z| and magnitude |Z|
    eta = 0.05
    Z = np.array([[1.0], [-eta]])
    norm = math.sqrt(1.0 + eta * eta)
    X, Theta = _polar_pair(Z, polar_retract(np.array([[1.0], [0.0]]), np.array([[0.0], [1.0]]), eta))
    np.testing.assert_allclose(X, Z / norm, atol=1e-14)
    np.testing.assert_allclose(Theta, [[norm]], atol=1e-14)


def test_polar_decompose_rotation_oracle():
    # X0 = I, skew D = [[0,-1],[1,0]], eta = 3/4: Z = [[1,3/4],[-3/4,1]], Z^T Z = (5/4)^2 I,
    # so Theta = 5/4 I and X = Z / (5/4) is a rotation
    Z = np.array([[1.0, 0.75], [-0.75, 1.0]])
    X, Theta = _polar_pair(Z, polar_retract(np.eye(2), np.array([[0.0, -1.0], [1.0, 0.0]]), 0.75))
    np.testing.assert_allclose(Theta, 1.25 * np.eye(2), atol=1e-14)
    np.testing.assert_allclose(X, [[0.8, 0.6], [-0.6, 0.8]], atol=1e-14)


# step sizes that take both the binomial series and the eigh branch
POLAR_ETAS = [0.001, 0.01, 0.03, 0.1, 0.3, 1.0, 3.0, 10.0]


@pytest.mark.parametrize("seed", SEEDS)
def test_polar_decompose_matches_eigh_route(seed):
    # independent oracle: Theta = (Z^T Z)^{1/2} via eigh, X = Z Theta^{-1}
    rng = np.random.default_rng(seed)
    X0 = sample_stiefel_uniform(10, 4, rng)
    D = tangent_project(X0, rng.standard_normal((10, 4)))
    Z = X0 - POLAR_ETAS[seed] * D
    X, Theta = _polar_pair(Z, polar_retract(X0, D, POLAR_ETAS[seed]))
    w, Q = np.linalg.eigh(Z.T @ Z)
    Theta_ref = (Q * np.sqrt(w)) @ Q.T
    X_ref = Z @ np.linalg.inv(Theta_ref)
    np.testing.assert_allclose(Theta, Theta_ref, atol=1e-10 * max(1.0, np.linalg.norm(Z)))
    np.testing.assert_allclose(X, X_ref, atol=1e-10)


@pytest.mark.parametrize("seed", SEEDS)
def test_polar_decompose_reconstructs(seed):
    rng = np.random.default_rng(seed)
    X0 = sample_stiefel_uniform(15, 5, rng)
    D = tangent_project(X0, rng.standard_normal((15, 5)))
    Z = X0 - POLAR_ETAS[seed] * D
    X, Theta = _polar_pair(Z, polar_retract(X0, D, POLAR_ETAS[seed]))
    assert stiefel_error(X) <= 1e-10
    assert np.linalg.norm(X @ Theta - Z) <= 1e-10 * np.linalg.norm(Z)
    # Theta is symmetric PSD
    np.testing.assert_allclose(Theta, Theta.T, atol=1e-12 * max(1.0, np.linalg.norm(Z)))
    assert np.linalg.eigvalsh(Theta).min() > 0


def test_polar_decompose_rejects_rank_deficient():
    # the sampler's Z (Z^T Z)^{-1/2} has no polar factor when every draw of Z is singular
    class ZeroNormal:
        def standard_normal(self, shape):
            return np.zeros(shape)

    with pytest.raises(RankDeficientError, match="rank deficient twice"):
        sample_stiefel_uniform(3, 2, ZeroNormal())


def test_sampler_rejects_a_draw_below_the_relative_rank_cutoff():
    # Z^T Z = diag(1e6, 1e-7): its smallest eigenvalue is under RANK_DEFICIENCY_RTOL = 1e-12 times the largest
    class IllConditionedNormal:
        def standard_normal(self, shape):
            return np.array([[1e3, 0.0], [0.0, math.sqrt(1e-7)], [0.0, 0.0]])

    with pytest.raises(RankDeficientError, match="rank deficient twice"):
        sample_stiefel_uniform(3, 2, IllConditionedNormal())


# ---------------------------------------------------------------------------
# retraction


def test_polar_retract_axis_oracle():
    # X = e1, tangent D = e2, eta = 1: (X - D) / sqrt(2)
    X = np.array([[1.0], [0.0]])
    D = np.array([[0.0], [1.0]])
    out = polar_retract(X, D, 1.0)
    s = 1.0 / np.sqrt(2.0)
    np.testing.assert_allclose(out, [[s], [-s]], atol=1e-14)


@pytest.mark.parametrize("seed", SEEDS)
def test_polar_retract_equals_polar_factor(seed):
    # oracle: the retraction is the polar direction factor of X - eta D
    rng = np.random.default_rng(seed)
    X = sample_stiefel_uniform(12, 4, rng)
    D = tangent_project(X, rng.standard_normal((12, 4)))
    eta = 0.3
    out = polar_retract(X, D, eta)
    ref = polar_factor(X - eta * D)
    np.testing.assert_allclose(out, ref, atol=1e-10)
    assert stiefel_error(out) <= 1e-9


def test_polar_retract_zero_step_is_identity():
    X = sample_stiefel_uniform(8, 3, np.random.default_rng(0))
    out = polar_retract(X, np.zeros_like(X), 0.5)
    np.testing.assert_allclose(out, X, atol=1e-12)


def test_polar_retract_validates_inputs():
    X = sample_stiefel_uniform(6, 2, np.random.default_rng(0))
    with pytest.raises(ValueError):
        polar_retract(X, np.zeros((6, 3)), 0.1)
    with pytest.raises(ValueError):
        polar_retract(X, np.zeros_like(X), -0.1)
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError, match="eta must be finite and nonnegative"):
            polar_retract(X, np.zeros_like(X), bad)
    for shape in ((6,), (2, 6), (6, 2, 1)):
        with pytest.raises(ValueError, match="must be 2-D of one tall shape"):
            polar_retract(np.zeros(shape), np.zeros(shape), 0.1)


def _eigh_retraction(X, D, eta):
    # the closed form (X - eta D)(I + eta^2 D^T D)^{-1/2} through eigh
    w, Q = np.linalg.eigh(D.T @ D)
    scale = 1.0 / np.sqrt(np.maximum(1.0 + eta * eta * w, 1e-14))
    return (X - eta * D) @ ((Q * scale) @ Q.T)


# x = ||eta^2 D^T D||_F and the series order it selects; None takes eigh
SERIES_CASES = [(0.0, 1), (1e-14, 2), (1e-10, 2), (1e-4, 4), (1e-2, 8), (0.3, None), (2.0, None)]


@pytest.mark.parametrize("x, order", SERIES_CASES)
@pytest.mark.parametrize("seed", [0, 1])
def test_polar_retract_series_matches_eigh_formula(monkeypatch, seed, x, order):
    rng = np.random.default_rng(seed)
    X = sample_stiefel_uniform(50, 20, rng)
    D = tangent_project(X, rng.standard_normal((50, 20)))
    eta = float(np.sqrt(x / np.linalg.norm(D.T @ D)))
    assert retract_series_order(eta * eta * float(np.linalg.norm(D.T @ D))) == order
    eigh_calls = []
    eigh = np.linalg.eigh

    def counting_eigh(M):
        eigh_calls.append(M)
        return eigh(M)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    out = polar_retract(X, D, eta)
    monkeypatch.undo()
    assert len(eigh_calls) == (1 if order is None else 0)
    ref = _eigh_retraction(X, D, eta)
    if order is None:
        # the fallback is the eigh formula itself, bit for bit
        assert np.array_equal(out, ref)
    assert np.linalg.norm(out - ref) <= 1e-13 * np.linalg.norm(ref)
    assert stiefel_error(out) <= 1e-12


@pytest.mark.parametrize("x", [0.0, 1e-300, 1e-16, 1e-14, 1e-10, 1e-6, 1e-4, 1e-3, 1e-2, 0.02, 0.3, 0.49, 0.5, 2.0])
def test_retract_series_order_is_minimal(x):
    def bound(n):
        # c_n = binom(2n, n) / 4^n, the n-th coefficient of (1 + x)^{-1/2} in (-x)^n
        return math.comb(2 * n, n) / 4**n * x**n / (1.0 - x)

    n = retract_series_order(x)
    if n is None:
        # past the cap: the bound fails at every order the series may use
        assert x >= 0.5 or all(bound(k) > UNIT_ROUNDOFF for k in range(1, RETRACT_SERIES_MAX_ORDER + 1))
        return
    assert 1 <= n <= RETRACT_SERIES_MAX_ORDER
    assert bound(n) <= UNIT_ROUNDOFF
    if n > 1:
        assert bound(n - 1) > UNIT_ROUNDOFF


def test_binomial_coeffs_follow_their_recurrence():
    # c_0 = 1 and c_k = c_{k-1} (2k - 1) / (2k), exactly
    assert len(_BINOMIAL_COEFFS) == RETRACT_SERIES_MAX_ORDER + 1 and _BINOMIAL_COEFFS[0] == 1.0
    for k in range(1, RETRACT_SERIES_MAX_ORDER + 1):
        assert Fraction(_BINOMIAL_COEFFS[k]) == Fraction(_BINOMIAL_COEFFS[k - 1]) * Fraction(2 * k - 1, 2 * k), k


def test_retract_series_order_matches_the_exact_rule():
    # the smallest n <= RETRACT_SERIES_MAX_ORDER with c_n x^n / (1 - x) <= 2^-53 in exact arithmetic, else None
    for x in np.logspace(-17.0, math.log10(0.499), 4000):
        q = Fraction(float(x))
        orders = range(1, RETRACT_SERIES_MAX_ORDER + 1)
        exact = next((n for n in orders if Fraction(_BINOMIAL_COEFFS[n]) * q**n / (1 - q) <= Fraction(UNIT_ROUNDOFF)), None)
        assert retract_series_order(float(x)) == exact, x


NON_TANGENT_SCRIPT = """
import numpy as np
from polarlab.exceptions import FeasibilityError
from polarlab.stiefel import polar_retract
X = np.eye(4, 2)
D = np.zeros((4, 2))
D[0, 0] = 1.0  # X^T D + D^T X = diag(2, 0)
try:
    polar_retract(X, D, 0.1)
except FeasibilityError as exc:
    print("raised:", exc)
"""


def test_polar_retract_rejects_non_tangent_direction():
    X = np.eye(4, 2)
    D = np.zeros((4, 2))
    D[0, 0] = 1.0
    with pytest.raises(FeasibilityError, match="not tangent"):
        polar_retract(X, D, 0.1)
    # a normal component below the tolerance, 1e-8 max(1, ||D||_F), passes
    rng = np.random.default_rng(0)
    X = sample_stiefel_uniform(12, 4, rng)
    D = tangent_project(X, rng.standard_normal((12, 4)))
    polar_retract(X, D + 1e-10 * X, 0.1)
    with pytest.raises(FeasibilityError, match="not tangent"):
        polar_retract(X, D + 1e-6 * X, 0.1)
    with pytest.raises(FeasibilityError, match="not tangent"):
        polar_retract(X, np.full_like(X, np.nan), 0.1)


@pytest.mark.parametrize("tangent_norm, eta", [(1.0, 1.0), (1e3, 1e-3)])
def test_certificate_error_names_the_tangency_residual_that_passed(tangent_norm, eta):
    # a normal part X S with ||X'D + D'X||_F = ||2 S||_F half the bound 1e-8 max(1, ||D||_F) passes
    # the tangency check, and at eta ||D||_F = 1 it moves the output off St by more than 1e-9
    rng = np.random.default_rng(0)
    X = sample_stiefel_uniform(12, 3, rng)
    T = tangent_project(X, rng.standard_normal((12, 3)))
    T *= tangent_norm / np.linalg.norm(T)
    S = rng.standard_normal((3, 3))
    S += S.T
    S *= 0.5 * TANGENCY_TOL * tangent_norm / (2.0 * np.linalg.norm(S))
    D = T + X @ S
    residual, bound = tangency_residual_reference(X, D), TANGENCY_TOL * max(1.0, float(np.linalg.norm(D)))
    assert 0.0 < residual <= bound
    with pytest.raises(FeasibilityError) as info:
        polar_retract(X, D, eta)
    head, tail = str(info.value).split(f" at eta = {eta:g}")
    assert head.startswith("retracted X is off St(12,3): ||X'X - I||_F = ")
    assert tail == f"; ||X'D + D'X||_F = {residual:.3e} <= {bound:.3e}"


def test_certificate_error_of_a_tangent_direction_names_no_residual():
    # D = 0 is tangent with residual 0, so the output is X, here 1e-6 off St: the error names eta alone
    X = np.eye(5, 2)
    X[0, 0] += 1e-6
    with pytest.raises(FeasibilityError) as info:
        polar_retract(X, np.zeros((5, 2)), 0.5)
    assert str(info.value).startswith("retracted X is off St(5,2): ")
    assert str(info.value).endswith("> 1.0e-09 at eta = 0.5")


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_polar_retract_tangency_check_survives_optimize_flag(flags):
    import polarlab

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(polarlab.__file__)))
    proc = subprocess.run(
        [sys.executable, *flags, "-c", NON_TANGENT_SCRIPT], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("raised: retraction direction is not tangent")


@pytest.mark.parametrize("seed", SEEDS)
def test_tangent_project_properties(seed):
    rng = np.random.default_rng(seed)
    X = sample_stiefel_uniform(10, 4, rng)
    G = rng.standard_normal((10, 4))
    P = tangent_project(X, G)
    # tangency: X^T P skew-symmetric
    np.testing.assert_allclose(X.T @ P + P.T @ X, np.zeros((4, 4)), atol=1e-12)
    # idempotence
    np.testing.assert_allclose(tangent_project(X, P), P, atol=1e-12)


def test_distance_to_stiefel_closed_forms():
    X = sample_stiefel_uniform(7, 3, np.random.default_rng(1))
    assert distance_to_stiefel(X) <= 1e-24
    # X = 2 I: X^T X - I = 3 I, squared norm 9 r
    r = 4
    X2 = np.zeros((9, r))
    X2[:r, :r] = 2.0 * np.eye(r)
    assert distance_to_stiefel(X2) == pytest.approx(9.0 * r, abs=1e-12)
    assert distance_to_stiefel(np.zeros((9, r))) == pytest.approx(float(r), abs=0)


def test_require_stiefel_raises_off_manifold():
    with pytest.raises(FeasibilityError):
        require_stiefel(1.5 * sample_stiefel_uniform(6, 2, np.random.default_rng(0)))


# ---------------------------------------------------------------------------
# stable rank


def test_stable_rank_oracles():
    # diag(2, 1): (4 + 1) / 4
    assert stable_rank(np.diag([2.0, 1.0])).stable_rank == pytest.approx(1.25, abs=1e-14)
    # rank one
    W = np.outer([1.0, 2.0, -1.0], [3.0, 0.5])
    assert stable_rank(W).stable_rank == pytest.approx(1.0, abs=1e-12)
    # orthogonal matrix: all singular values one
    Q = np.linalg.qr(np.random.default_rng(0).standard_normal((6, 6)))[0]
    assert stable_rank(Q).stable_rank == pytest.approx(6.0, abs=1e-10)


def test_stable_rank_summary_consistency():
    W = np.random.default_rng(3).standard_normal((8, 5))
    summary = stable_rank(W)
    assert summary.spectral == pytest.approx(summary.singular_values[0])
    fro2 = float(np.sum(W * W))
    assert np.sum(summary.singular_values**2) == pytest.approx(fro2, rel=1e-12)
    assert summary.stable_rank == pytest.approx(fro2 / summary.spectral**2, rel=1e-12)
    assert np.all(np.diff(summary.singular_values) <= 0)


def test_stable_rank_rejects_zero():
    with pytest.raises(ValueError):
        stable_rank(np.zeros((3, 3)))


def test_stable_rank_of_a_single_nonzero_singular_value():
    # one column, and a second singular value that is exactly zero
    assert stable_rank(np.ones((3, 1))).stable_rank == 1.0
    assert stable_rank(np.diag([2.0, 0.0])).stable_rank == 1.0


# ---------------------------------------------------------------------------
# alignment diagnostics


def test_alignment_hand_case():
    # U spans (e1, e2); X spans (e2, e3): one shared direction
    U = np.eye(4)[:, :2]
    X = np.eye(4)[:, 1:3]
    rep = alignment(U, X)
    assert rep.trace_phi == pytest.approx(1.0, abs=1e-14)
    assert rep.sigma_min_phi == pytest.approx(0.0, abs=1e-14)
    assert 2 - rep.trace_phi == pytest.approx(1.0, abs=1e-14)  # misalignment Tr(I - Phi Phi^T), r_A = 2


def test_alignment_perfect():
    rng = np.random.default_rng(2)
    X = sample_stiefel_uniform(9, 4, rng)
    rep = alignment(X[:, :2], X)
    assert rep.trace_phi == pytest.approx(2.0, abs=1e-10)
    assert rep.sigma_min_phi == pytest.approx(1.0, abs=1e-10)


def test_alignment_validates():
    rng = np.random.default_rng(0)
    U = sample_stiefel_uniform(8, 3, rng)
    X = sample_stiefel_uniform(8, 2, rng)
    with pytest.raises(ValueError):
        alignment(U, X)  # r < r_A
    with pytest.raises(FeasibilityError):
        alignment(2.0 * U, U)


@pytest.mark.parametrize("seed", SEEDS)
def test_misalignment_trace_matches_explicit_complement(seed):
    # oracle: r_A - ||U^T X||_F^2 = ||X_perp^T U||_F^2 with X_perp built explicitly
    rng = np.random.default_rng(seed)
    m, r_a, r = 11, 3, 5
    U = sample_stiefel_uniform(m, r_a, rng)
    X = sample_stiefel_uniform(m, r, rng)
    Q = np.linalg.qr(np.hstack([X, rng.standard_normal((m, m - r))]))[0]
    X_perp = Q[:, r:]
    ref = float(np.sum((X_perp.T @ U) ** 2))
    assert r_a - alignment(U, X).trace_phi == pytest.approx(ref, abs=1e-10)


@pytest.mark.parametrize("seed", SEEDS)
def test_cosine_sine_pairing(seed):
    # eigenvalues of Phi^T Phi and Omega^T Omega pair to exactly one
    rng = np.random.default_rng(seed)
    m, r_a, r = 10, 4, 6
    U = sample_stiefel_uniform(m, r_a, rng)
    X = sample_stiefel_uniform(m, r, rng)
    Q = np.linalg.qr(np.hstack([U, rng.standard_normal((m, m - r_a))]))[0]
    U_perp = Q[:, r_a:]
    cos2 = np.sort(np.linalg.eigvalsh((U.T @ X).T @ (U.T @ X)))
    sin2 = np.sort(np.linalg.eigvalsh((U_perp.T @ X).T @ (U_perp.T @ X)))[::-1]
    np.testing.assert_allclose(cos2 + sin2, np.ones(r), atol=1e-8)


# ---------------------------------------------------------------------------
# direction diversity


def test_pairwise_distances_hand_case():
    # rows e1, e2, -e1: distances sqrt(2), 2, sqrt(2)
    W = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
    rep = pairwise_direction_distances(W)
    s2 = np.sqrt(2.0)
    expected = np.array([[0.0, s2, 2.0], [s2, 0.0, s2], [2.0, s2, 0.0]])
    np.testing.assert_allclose(rep.distances, expected, atol=1e-12)
    assert rep.mean_distance == pytest.approx((2 * s2 + 2.0) / 3.0, abs=1e-12)
    assert rep.excluded_rows == ()


def test_pairwise_distances_normalize_rows_of_any_norm():
    # directions (1, 1) / sqrt(2), e1 and -e1 from rows of norms 3 sqrt(2), 0.1 and 5
    rep = pairwise_direction_distances(np.array([[3.0, 3.0], [0.1, 0.0], [-5.0, 0.0]]))
    a, b = math.sqrt(2.0 - math.sqrt(2.0)), math.sqrt(2.0 + math.sqrt(2.0))
    np.testing.assert_allclose(rep.distances, [[0.0, a, b], [a, 0.0, 2.0], [b, 2.0, 0.0]], atol=1e-12)


def test_pairwise_distances_excludes_zero_rows():
    W = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 2.0]])
    rep = pairwise_direction_distances(W)
    assert rep.excluded_rows == (1,)
    assert rep.mean_distance == pytest.approx(np.sqrt(2.0), abs=1e-12)


def test_pairwise_distances_single_direction_collapse():
    # all rows on one line (up to sign and scale): distances 0 or 2
    W = np.outer([1.0, -2.0, 0.5], [3.0, 4.0])
    rep = pairwise_direction_distances(W)
    off = rep.distances[~np.eye(3, dtype=bool)]
    assert np.all((np.abs(off) <= 1e-8) | (np.abs(off - 2.0) <= 1e-8))


def test_pairwise_distances_all_zero_raises():
    with pytest.raises(ValueError):
        pairwise_direction_distances(np.zeros((4, 3)))


@pytest.mark.parametrize("seed", SEEDS)
def test_pairwise_distances_properties(seed):
    W = np.random.default_rng(seed).standard_normal((7, 4))
    rep = pairwise_direction_distances(W)
    D = rep.distances
    np.testing.assert_allclose(D, D.T, atol=1e-12)
    np.testing.assert_array_equal(np.diag(D), np.zeros(7))
    assert np.all(D >= 0) and np.all(D <= 2.0 + 1e-12)
