"""Property tests of the landing field at points off the Stiefel manifold.

X is an m x r matrix, r <= 10, drawn near St(m, r) or far from it, G a
gradient of any scale and lam in [0, 10]. The field's loss component
Skew(G X^T) X and its penalty component lam * grad N(X) are
Frobenius-orthogonal at every X, and the unchecked kernel that a training
step points at a view of its direction buffer writes the bits of the public
``landing_field`` there and nothing outside the view.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from polarlab.landing import _landing_field_into, grad_distance_to_stiefel, landing_field  # noqa: E402
from polarlab.stiefel import sample_stiefel_uniform  # noqa: E402

PROPERTY = settings(max_examples=200, deadline=None, database=None)
# bound on both residuals below over the scale of their terms' roundings; 3000 examples read at
# most 1.1e-16 (orthogonality) and 2.7e-16 (the split of the field)
RTOL = 1e-13


@st.composite
def _points(draw):
    """(X, G, lam): X a Stiefel point plus an offset of relative size 10^-8 .. 10^0.5, G of norm 10^-3 .. 10^3."""
    r = draw(st.integers(1, 10))
    m = r + draw(st.integers(0, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = sample_stiefel_uniform(m, r, rng)
    X += 10.0 ** draw(st.floats(-8.0, 0.5)) * rng.standard_normal((m, r)) / np.sqrt(m * r)
    G = rng.standard_normal((m, r))
    G *= 10.0 ** draw(st.floats(-3.0, 3.0)) / np.linalg.norm(G)
    return X, G, draw(st.floats(0.0, 10.0))


@PROPERTY
@given(point=_points())
def test_loss_and_penalty_components_are_orthogonal(point):
    X, G, lam = point
    loss_part, grad_n = landing_field(X, G, 0.0), grad_distance_to_stiefel(X)
    loss_scale = np.linalg.norm(G) * np.linalg.norm(X) ** 2  # bounds ||Skew(G X^T) X||_F
    assert abs(np.vdot(loss_part, grad_n)) <= RTOL * loss_scale * np.linalg.norm(grad_n)
    # the field is the sum of the two, so they are its components
    gap = np.linalg.norm(X.T @ X - np.eye(X.shape[1]))
    split = np.linalg.norm(landing_field(X, G, lam) - loss_part - lam * grad_n)
    assert split <= RTOL * (loss_scale + 4.0 * lam * np.linalg.norm(X) * gap)


@PROPERTY
@given(point=_points(), before=st.integers(0, 40), after=st.integers(0, 40))
def test_kernel_into_a_view_of_a_packed_vector_has_the_public_bits(point, before, after):
    X, G, lam = point
    packed = np.full(before + X.size + after, np.nan)
    view = packed[before : before + X.size].reshape(X.shape)
    assert _landing_field_into(X, G, lam, view) is view
    assert np.array_equal(view.view(np.uint64), landing_field(X, G, lam).view(np.uint64))
    assert np.isnan(packed[:before]).all() and np.isnan(packed[before + X.size :]).all()
