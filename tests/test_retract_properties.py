"""Property tests of polar_retract's tangency check and certificate.

A direction D = T + X S is a tangent T at a Haar point X of St(m, r), with
||T||_F from 1e-3 to 1e6, plus a normal part X S, S symmetric, whose size
sets the residual ||X^T D + D^T X||_F = ||2 S||_F above the bound
1e-8 max(1, ||D||_F), under it but above 1e-8, or at most 1e-8. eta puts ||eta^2 D^T D||_F where the binomial
series runs, or where eigh does. The retraction must reject D as not tangent
exactly when the residual of ``tests/oracles.py`` exceeds the bound, outside
a thin band around it where the two computations of the residual may round
apart. Below the bound it returns the reference's point, which passes the
1e-9 certificate, or raises the certificate's error where the reference's
point fails it too: a normal part under the tangency bound can still move
the output off St by more than 1e-9.
"""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402
from oracles import polar_retract_reference, tangency_residual_reference  # noqa: E402

from polarlab.exceptions import FeasibilityError  # noqa: E402
from polarlab.stiefel import (  # noqa: E402
    RETRACT_FEASIBILITY_TOL,
    TANGENCY_TOL,
    _series_order,
    polar_retract,
    sample_stiefel_uniform,
    tangent_project,
)

PROPERTY = settings(max_examples=200, deadline=None, database=None)
# half-width, in decades, of the band around the bound that the property leaves out
BAND_DECADES = 0.02
# decades that a drawn residual keeps off the edges of its side; wider than the band, as ||D||_F >= ||T||_F
MARGIN = 1.5 * BAND_DECADES


@st.composite
def _sizes(draw):
    """(log10 ||T||_F, log10 of the residual over 1e-8 max(1, ||T||_F)), on one side: above the bound,
    at most the bound but above 1e-8, where the check reads ||D||_F, or at most 1e-8."""
    side = draw(st.sampled_from(["above", "band", "at most 1e-8"]))
    if side == "band":
        log_norm = draw(st.floats(2 * MARGIN, 6.0))
        return log_norm, draw(st.floats(max(-3.0, MARGIN - log_norm), -MARGIN))
    log_norm = draw(st.floats(-3.0, 6.0))
    if side == "above":
        return log_norm, draw(st.floats(MARGIN, 3.0))
    top = -max(log_norm, 0.0)
    return log_norm, draw(st.floats(top - 3.0, top - MARGIN))


def _direction(m, r, tangent_norm, ratio, seed):
    """(X, D): X on St(m, r), D a tangent of norm ``tangent_norm`` plus a normal part whose
    residual is ``ratio`` times 1e-8 max(1, tangent_norm)."""
    rng = np.random.default_rng(seed)
    X = sample_stiefel_uniform(m, r, rng)
    T = tangent_project(X, rng.standard_normal((m, r)))
    T *= tangent_norm / np.linalg.norm(T)
    S = rng.standard_normal((r, r))
    S += S.T
    S *= ratio * TANGENCY_TOL * max(1.0, tangent_norm) / (2.0 * np.linalg.norm(S))
    return X, T + X @ S


def _eta(X, D, path, log_x):
    """eta with ||eta^2 D^T D||_F = 10^log_x, checked to select ``path``."""
    M = D.T @ D
    eta = math.sqrt(10.0**log_x / np.linalg.norm(M))
    assert (_series_order(eta * eta * M) is None) == (path == "eigh")
    return eta


@PROPERTY
@given(
    r=st.integers(1, 10),
    extra_rows=st.integers(0, 50),
    sizes=_sizes(),
    # series: ||K||_F at most 0.045, where an order <= 12 qualifies; eigh: ||K||_F >= sqrt(r),
    # so ||K||_1 >= ||K||_2 >= ||K||_F / sqrt(r) >= 1 > 1/2 as well
    path_log_x=st.one_of(
        st.tuples(st.just("series"), st.floats(-18.0, math.log10(0.045))),
        st.tuples(st.just("eigh"), st.floats(0.0, 2.0)),
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_tangency_error_exactly_above_the_bound_and_returned_points_certified(
    r, extra_rows, sizes, path_log_x, seed
):
    m = max(2, r) + extra_rows  # St(1, 1) has no tangent direction
    X, D = _direction(m, r, *(10.0**size for size in sizes), seed)
    residual, bound = tangency_residual_reference(X, D), TANGENCY_TOL * max(1.0, float(np.linalg.norm(D)))
    assume(abs(math.log10(residual / bound)) > BAND_DECADES)
    path, log_x = path_log_x
    eta = _eta(X, D, path, log_x + (0.5 * math.log10(r) if path == "eigh" else 0.0))
    if residual > bound:
        with pytest.raises(FeasibilityError, match=r"^retraction direction is not tangent: "):
            polar_retract(X, D, eta)
        return
    try:
        out = polar_retract(X, D, eta)
    except FeasibilityError as exc:
        assert str(exc).startswith(f"retracted X is off St({m},{r}): ")
        with pytest.raises(FeasibilityError):
            polar_retract_reference(X, D, eta)
        return
    assert np.linalg.norm(out.T @ out - np.eye(r)) <= RETRACT_FEASIBILITY_TOL
    assert np.array_equal(out, polar_retract_reference(X, D, eta))


@pytest.mark.parametrize("path, log_x, ratio", [("series", -10.0, 0.5), ("eigh", 0.5 * math.log10(20) + 0.3, 1e-2)])
def test_residual_above_1e8_under_the_bound_of_a_long_direction_is_tangent(path, log_x, ratio):
    # ||D||_F = 1e3 puts the bound at 1e-5, so a residual in (1e-8, 1e-5] passes the check that
    # reads ||D||_F only above 1e-8
    X, D = _direction(50, 20, 1e3, ratio, seed=9)
    residual = tangency_residual_reference(X, D)
    assert TANGENCY_TOL < residual <= TANGENCY_TOL * np.linalg.norm(D)
    eta = _eta(X, D, path, log_x)
    out = polar_retract(X, D, eta)
    assert np.linalg.norm(out.T @ out - np.eye(20)) <= RETRACT_FEASIBILITY_TOL
    assert np.array_equal(out, polar_retract_reference(X, D, eta))
