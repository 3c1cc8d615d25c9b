"""Basis construction, evaluation and design-block tests."""

import numpy as np
import pytest

import vcforward as vf
from vcforward.errors import ConfigError

from oracles import naive_basis


def test_cubic_seven_has_quartile_interior_knots():
    b = vf.build_basis(7, 4)
    np.testing.assert_allclose(b.interior_knots, [0.25, 0.5, 0.75])
    assert b.knots.shape == (11,)
    assert np.all(b.knots[:4] == 0.0) and np.all(b.knots[-4:] == 1.0)
    assert np.all(np.diff(b.knots) >= 0.0)


def test_bernstein_case_has_no_interior_knots():
    b = vf.build_basis(4, 4)
    assert b.interior_knots.size == 0
    assert b.knots.shape == (8,)


@pytest.mark.parametrize("dim,order", [(3, 4), (1, 2), (5, 1), (4, 0)])
def test_invalid_configuration_rejected(dim, order):
    with pytest.raises(ConfigError):
        vf.build_basis(dim, order)


def test_clamped_endpoints():
    b = vf.build_basis(7, 4)
    left = vf.basis_matrix(b, [0.0])[0]
    right = vf.basis_matrix(b, [1.0])[0]
    np.testing.assert_array_equal(left, np.eye(7)[0])
    np.testing.assert_array_equal(right, np.eye(7)[6])


def test_partition_of_unity_and_positivity():
    b = vf.build_basis(7, 4)
    grid = np.linspace(0.0, 1.0, 1000)
    mat = vf.basis_matrix(b, grid)
    assert np.abs(mat.sum(axis=1) - 1.0).max() <= 1e-12
    assert mat.min() >= 0.0


def test_local_support_at_most_order_nonzero():
    for dim, order in [(7, 4), (6, 3), (5, 2), (9, 4)]:
        b = vf.build_basis(dim, order)
        mat = vf.basis_matrix(b, np.linspace(0.0, 1.0, 500))
        assert (mat != 0.0).sum(axis=1).max() <= order


@pytest.mark.parametrize("t", [0.1, 0.37, 0.9])
def test_matches_divided_difference_oracle(t):
    b = vf.build_basis(7, 4)
    got = vf.basis_matrix(b, [t])[0]
    want = naive_basis(b.knots, b.order, b.dim, t)
    np.testing.assert_allclose(got, want, atol=1e-12)
    assert abs(got.sum() - 1.0) <= 1e-12


def test_matches_oracle_on_random_points_and_shapes():
    rng = np.random.default_rng(7)
    for dim, order in [(7, 4), (5, 3), (4, 4), (8, 2), (6, 5)]:
        b = vf.build_basis(dim, order)
        for t in rng.random(15):
            np.testing.assert_allclose(
                vf.basis_matrix(b, [t])[0],
                naive_basis(b.knots, order, dim, t),
                atol=1e-12,
            )


@pytest.mark.parametrize("t", [-0.2, 1.0001, 5.0])
def test_domain_error_outside_unit_interval(t):
    b = vf.build_basis(7, 4)
    with pytest.raises(ValueError):
        vf.basis_matrix(b, [t])[0]


def test_design_block_intercept_equals_raw_basis():
    b = vf.build_basis(6, 4)
    t = np.array([0.0, 0.2, 0.55, 1.0])
    block = vf.design_block(b, t, np.ones(4), covariate_index=0)
    np.testing.assert_array_equal(block.matrix, vf.basis_matrix(b, t))


def test_design_block_zero_column_gives_zero_matrix():
    b = vf.build_basis(6, 4)
    t = np.linspace(0.0, 1.0, 5)
    block = vf.design_block(b, t, np.zeros(5), covariate_index=3)
    assert np.all(block.matrix == 0.0)


def test_design_block_rows_match_scalar_recomputation():
    rng = np.random.default_rng(3)
    b = vf.build_basis(7, 4)
    t = rng.random(3)
    x = rng.standard_normal(3)
    block = vf.design_block(b, t, x, covariate_index=1)
    for i in range(3):
        np.testing.assert_allclose(
            block.matrix[i], vf.basis_matrix(b, [t[i]])[0] * x[i], atol=1e-15
        )


def test_design_block_shape_mismatch():
    b = vf.build_basis(5, 3)
    with pytest.raises(ValueError):
        vf.design_block(b, np.zeros(4), np.zeros(5))


def test_constants_reproduced_exactly():
    # Constants lie in the spline space, so an intercept-only fit of y = 1
    # must be exact.
    rng = np.random.default_rng(5)
    b = vf.build_basis(7, 4)
    t = rng.random(60)
    block = vf.design_block(b, t, np.ones(60), covariate_index=0)
    y = np.ones(60)
    fit = vf.fit_full(vf.build_projection_cache([block], y), y)
    resid = 1.0 - vf.predict_response(fit, b, t, np.ones((60, 1)))
    assert np.abs(resid).max() <= 1e-10


def test_gram_eigenvalues_scale_like_one_over_dim():
    # Finite-sample sanity: eigenvalues of the averaged Gram sit inside a
    # [c1/L, c2/L] window with a moderate spread.
    rng = np.random.default_rng(0)
    b = vf.build_basis(7, 4)
    n = 400
    t = rng.random(n)
    x = rng.choice([-1.0, 1.0], size=n)
    w = np.hstack([vf.basis_matrix(b, t), vf.basis_matrix(b, t) * x[:, None]])
    eigs = np.linalg.eigvalsh(w.T @ w / n)
    c1 = eigs.min() * b.dim
    c2 = eigs.max() * b.dim
    assert c1 > 0.0
    assert c2 / c1 < 100.0, f"eigenvalue spread too wide: c1={c1:.4f}, c2={c2:.4f}"
