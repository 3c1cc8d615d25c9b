"""Least-squares engine tests against dense oracles."""

import numpy as np
import pytest

import vcforward as vf
from vcforward.errors import OverparameterizedError, SingularDesignError

from oracles import dense_projector, lstsq_gamma, lstsq_sigma_sq, normal_equations_sigma_sq

# One forward step from a given model: how the shipped route scores a pool.
ONE_STEP = vf.EbicConfig(max_steps=1)


def _blocks(basis, t, x, indices):
    return [vf.design_block(basis, t, x[:, j], covariate_index=j) for j in indices]


def _instance(seed, n=60, p=6, dim=5, order=3):
    rng = np.random.default_rng(seed)
    t = rng.random(n)
    x = np.column_stack([np.ones(n), rng.standard_normal((n, p))])
    y = rng.standard_normal(n) + 2.0 * x[:, 1] + x[:, 2] * t
    return vf.build_basis(dim, order), t, x, y


def test_fit_full_empty_set():
    rng = np.random.default_rng(0)
    y = rng.standard_normal(30)
    fit = vf.fit_full(vf.build_projection_cache([], y), y)
    assert fit.index_set == ()
    assert fit.gamma.size == 0
    assert fit.sigma_sq == pytest.approx(float(y @ y) / 30)


def test_fit_full_exact_when_y_in_span():
    basis, t, x, _ = _instance(1)
    blocks = _blocks(basis, t, x, [0, 1])
    gamma_true = np.arange(1.0, 2.0 * basis.dim + 1.0)
    y = np.hstack([b.matrix for b in blocks]) @ gamma_true
    fit = vf.fit_full(vf.build_projection_cache(blocks, y), y)
    assert fit.sigma_sq <= 1e-12
    assert fit.rank_ok


def test_fit_full_matches_normal_equations():
    basis, t, x, y = _instance(2, n=50, p=4, dim=5)
    blocks = _blocks(basis, t, x, [0, 2, 4])
    fit = vf.fit_full(vf.build_projection_cache(blocks, y), y)
    want = normal_equations_sigma_sq(blocks, y)
    assert fit.sigma_sq == pytest.approx(want, rel=1e-8)
    assert fit.index_set == (0, 2, 4)
    assert fit.gamma.shape == (3 * basis.dim,)
    # Coefficients against dense lstsq, also on designs that pass the rank
    # rule but are ill-conditioned: the 1e-3 near-duplicate of
    # test_rank_rule_agrees_across_kernel_and_cache (condition number about
    # 1e4) and columns scaled by 1e8 and 1e-8 (about 1e17). Each covariate's
    # coefficients are compared relative to their own norm. The largest
    # error measured over 38 seeds of this instance was 4.1e-12 on the
    # near-duplicate, 2.2e-14 scaled and 6.6e-15 plain; the bound leaves
    # about a 25x margin over the worst.
    z = np.random.default_rng(102).standard_normal(len(t))
    designs = [
        x[:, [0, 2, 4]],
        np.column_stack([x[:, 0], x[:, 1], x[:, 1] + 1e-3 * z]),
        np.column_stack([x[:, 0], 1e8 * x[:, 1], 1e-8 * x[:, 2]]),
    ]
    for cols in designs:
        blocks = _blocks(basis, t, cols, range(3))
        gamma = vf.fit_full(vf.build_projection_cache(blocks, y), y).gamma.reshape(3, -1)
        want = lstsq_gamma(blocks, y).reshape(3, -1)
        err = np.linalg.norm(gamma - want, axis=1) / np.linalg.norm(want, axis=1)
        assert err.max() <= 1e-10, err


def test_fit_full_overparameterized():
    basis, t, x, y = _instance(3, n=9, dim=5)
    with pytest.raises(OverparameterizedError):
        vf.build_projection_cache(_blocks(basis, t, x, [0, 1]), y)


def test_fit_full_rank_deficient_raises():
    basis, t, x, y = _instance(4)
    dup = _blocks(basis, t, x, [1, 1])
    with pytest.raises(SingularDesignError):
        vf.build_projection_cache(dup, y)



def test_build_projection_cache_names_the_collinear_block():
    basis, t, x, y = _instance(4)
    x[:, 2] = x[:, 1]
    with pytest.raises(SingularDesignError, match="covariate index 2: ") as info:
        vf.build_projection_cache(_blocks(basis, t, x, [0, 1, 2, 3]), y)
    assert info.value.covariate_index == 2

def test_sigma_never_exceeds_raw_second_moment():
    for seed in range(5):
        basis, t, x, y = _instance(10 + seed)
        fit = vf.fit_full(vf.build_projection_cache(_blocks(basis, t, x, [0, 1, 3]), y), y)
        assert fit.sigma_sq <= float(y @ y) / len(y) + 1e-12


def test_cache_empty_set_keeps_y():
    rng = np.random.default_rng(6)
    y = rng.standard_normal(25)
    cache = vf.build_projection_cache([], y)
    np.testing.assert_array_equal(cache.residual_y, y)
    assert cache.sigma_sq == pytest.approx(float(y @ y) / 25)
    assert cache.q.shape == (25, 0)
    # The cache holds its own copy of y.
    kept = y.copy()
    y[:] = 0.0
    np.testing.assert_array_equal(cache.residual_y, kept)


def test_cache_orthogonality_intercept_only():
    basis, t, x, y = _instance(7)
    block = _blocks(basis, t, x, [0])[0]
    cache = vf.build_projection_cache([block], y)
    assert np.abs(block.matrix.T @ cache.residual_y).max() <= 1e-8 * len(y)


def test_cache_matches_dense_projector():
    basis, t, x, y = _instance(8, n=60)
    blocks = _blocks(basis, t, x, [0, 1, 2])
    cache = vf.build_projection_cache(blocks, y)
    w = np.hstack([b.matrix for b in blocks])
    resid_oracle = y - dense_projector(w) @ y
    np.testing.assert_allclose(cache.residual_y, resid_oracle, atol=1e-9)
    fit = vf.fit_full(vf.build_projection_cache(blocks, y), y)
    assert cache.sigma_sq == pytest.approx(fit.sigma_sq, rel=1e-10)


def test_extend_cache_equals_rebuild():
    basis, t, x, y = _instance(9)
    blocks = _blocks(basis, t, x, [0, 1, 2])
    grown = vf.build_projection_cache(blocks[:1], y)
    for b in blocks[1:]:
        grown = vf.extend_cache(grown, b)
    rebuilt = vf.build_projection_cache(blocks, y)
    # One route grows every factor, so the two agree to the last bit.
    assert grown.index_set == rebuilt.index_set
    assert grown.sigma_sq == rebuilt.sigma_sq
    np.testing.assert_array_equal(grown.q, rebuilt.q)
    np.testing.assert_array_equal(grown.r, rebuilt.r)
    np.testing.assert_array_equal(grown.residual_y, rebuilt.residual_y)


def test_duplicate_block_is_degenerate():
    basis, t, x, y = _instance(11)
    ds = vf.from_arrays(y, t, np.column_stack([x[:, 1], x[:, 1]]))
    trace = vf.run_forward(ds, basis, ONE_STEP, initial_set=(1,), candidate_pool=[2])
    assert trace.steps == () and trace.stop_reason == "candidates_exhausted"
    block = _blocks(basis, t, x, [1])[0]
    cache = vf.build_projection_cache([block], y)
    with pytest.raises(SingularDesignError):
        vf.extend_cache(cache, vf.DesignBlock(2, block.matrix.copy()))


def test_variance_drop_zero_when_y_explained():
    basis, t, x, _ = _instance(12)
    y = _blocks(basis, t, x, [0])[0].matrix @ np.ones(basis.dim)  # y inside the span of block 0
    ds = vf.from_arrays(y, t, x[:, 1:])
    trace = vf.run_forward(ds, basis, ONE_STEP, candidate_pool=[1])
    assert 0.0 <= trace.steps[0].delta_rss <= 1e-12


def test_variance_drop_matches_two_full_fits():
    rng = np.random.default_rng(13)
    basis = vf.build_basis(5, 3)
    n, p = 80, 10
    t = rng.random(n)
    x = np.column_stack([np.ones(n), rng.standard_normal((n, p))])
    y = rng.standard_normal(n) + x[:, 3] * (1.0 + t) ** 2
    current = [0, 3]
    blocks = _blocks(basis, t, x, current)
    ds = vf.from_arrays(y, t, x[:, 1:])
    sigma_s = vf.fit_full(vf.build_projection_cache(blocks, y), y).sigma_sq
    for l in range(1, p + 1):
        if l in current:
            continue
        trace = vf.run_forward(ds, basis, ONE_STEP, initial_set=current, candidate_pool=[l])
        cand = vf.design_block(basis, t, x[:, l], covariate_index=l)
        sigma_sl = vf.fit_full(vf.build_projection_cache(blocks + [cand], y), y).sigma_sq
        assert trace.steps[0].delta_rss == pytest.approx(sigma_s - sigma_sl, rel=1e-8, abs=1e-12)


def test_extended_cache_coefficients_match_full_fit():
    basis, t, x, y = _instance(14, n=70)
    blocks = _blocks(basis, t, x, [0, 1])
    cache = vf.build_projection_cache(blocks, y)
    cand = _blocks(basis, t, x, [4])[0]
    gamma = vf.fit_full(vf.extend_cache(cache, cand), y).gamma
    full = vf.fit_full(vf.build_projection_cache(blocks + [cand], y), y)
    np.testing.assert_allclose(gamma[2 * basis.dim :], full.gamma[2 * basis.dim :], atol=1e-9)


def test_rank_rule_agrees_across_kernel_and_cache():
    basis, t, x, y = _instance(21)
    cache = vf.build_projection_cache(_blocks(basis, t, x, [0, 1]), y)
    z = np.random.default_rng(22).standard_normal(len(t))
    config = vf.EbicConfig(eta=0.0, patience=5)
    for eps, usable in ((1e-3, True), (1e-9, False)):
        cand = vf.design_block(basis, t, x[:, 1] + eps * z, covariate_index=2)
        # The same twin as the last covariate of a dataset, and a twin of the
        # intercept, the model that the marginal screen starts from.
        ds = vf.from_arrays(y, t, np.column_stack([x[:, 1:], x[:, 1] + eps * z, 1.0 + eps * z]))
        twin, intercept_twin = ds.p - 1, ds.p
        forward = vf.run_forward(ds, basis, config, initial_set=(0, 1), candidate_pool=[twin])
        ranked = vf.marginal_rank_screen(ds, basis, ds.p)
        if usable:
            assert vf.extend_cache(cache, cand).index_set == (0, 1, 2)
            assert [s.index for s in forward.steps] == [twin]
            assert forward.steps[0].delta_rss >= 0.0
        else:
            with pytest.raises(SingularDesignError):
                vf.extend_cache(cache, cand)
            assert forward.steps == () and forward.stop_reason == "candidates_exhausted"
            full = vf.run_forward(ds, basis, config, initial_set=(0, 1))
            assert twin not in [s.index for s in full.steps]
        # The screen ranks like the explicit route: by variance drop, ties by
        # index, degenerate covariates behind every usable one.
        start = vf.build_projection_cache(_blocks(basis, t, ds.x, [0]), y)
        drops = {}
        for j in range(1, ds.p + 1):
            try:
                extended = vf.extend_cache(start, _blocks(basis, t, ds.x, [j])[0])
                drops[j] = start.sigma_sq - extended.sigma_sq
            except SingularDesignError:
                drops[j] = -np.inf
        assert ranked == sorted(drops, key=lambda j: (-drops[j], j))
        assert np.isfinite(drops[intercept_twin]) == usable


def test_predict_constant_fit():
    basis, t, x, _ = _instance(17)
    n = len(t)
    c = 3.25
    block = _blocks(basis, t, x, [0])[0]
    y = np.full(n, c)
    fit = vf.fit_full(vf.build_projection_cache([block], y), y)
    grid = np.array([0.0, 0.31, 0.77, 1.0])
    yhat = vf.predict_response(fit, basis, grid, np.ones((4, 1)))
    np.testing.assert_allclose(yhat, c, atol=1e-10)


def test_predict_zero_gamma():
    basis = vf.build_basis(5, 3)
    fit = vf.FitResult((0, 2), np.zeros(10), 1.0, True)
    x = np.array([[1.0, 5.0, -2.0]])
    assert vf.predict_response(fit, basis, np.array([0.4]), x)[0] == 0.0


def test_predict_saturated_fit_reproduces_y():
    rng = np.random.default_rng(18)
    basis = vf.build_basis(4, 4)
    n = 8  # dim * two covariates -> square design
    t = np.sort(rng.random(n))
    x = np.column_stack([np.ones(n), rng.standard_normal(n)])
    y = rng.standard_normal(n)
    blocks = [
        vf.design_block(basis, t, x[:, 0], covariate_index=0),
        vf.design_block(basis, t, x[:, 1], covariate_index=1),
    ]
    fit = vf.fit_full(vf.build_projection_cache(blocks, y), y)
    yhat = vf.predict_response(fit, basis, t, x)
    np.testing.assert_allclose(yhat, y, atol=1e-8)


def test_predict_domain_error():
    basis = vf.build_basis(5, 3)
    fit = vf.FitResult((0,), np.zeros(5), 1.0, True)
    with pytest.raises(ValueError):
        vf.predict_response(fit, basis, np.array([1.5]), np.ones((1, 1)))


def test_coefficient_curve_zero_and_endpoint():
    basis = vf.build_basis(6, 4)
    gamma = np.zeros(12)
    gamma[6] = 2.5  # first coefficient of covariate 3's block
    fit = vf.FitResult((0, 3), gamma, 1.0, True)
    assert np.all(vf.coefficient_curve(fit, basis, 0, np.linspace(0, 1, 11)) == 0.0)
    # Clamped basis: the curve at t = 0 is the leading spline coefficient.
    assert vf.coefficient_curve(fit, basis, 3, np.array([0.0]))[0] == pytest.approx(2.5)


def test_coefficient_curve_consistent_with_predict():
    basis, t, x, y = _instance(19)
    blocks = _blocks(basis, t, x, [0, 2])
    fit = vf.fit_full(vf.build_projection_cache(blocks, y), y)
    grid = np.linspace(0.0, 1.0, 9)
    curve = vf.coefficient_curve(fit, basis, 2, grid)
    # Covariate 2 set to one and the intercept to zero isolate its curve.
    x_unit = np.zeros((grid.size, 3))
    x_unit[:, 2] = 1.0
    yhat = vf.predict_response(fit, basis, grid, x_unit)
    np.testing.assert_allclose(yhat, curve, atol=1e-12)


def test_coefficient_curve_missing_covariate():
    basis = vf.build_basis(5, 3)
    fit = vf.FitResult((0,), np.zeros(5), 1.0, True)
    with pytest.raises(KeyError):
        vf.coefficient_curve(fit, basis, 4, np.linspace(0, 1, 5))


def test_scale_equivariance_of_sigma_and_argmin():
    basis, t, x, y = _instance(20, n=90, p=8)
    blocks = _blocks(basis, t, x, [0])
    first = vf.run_forward(vf.from_arrays(y, t, x[:, 1:]), basis, ONE_STEP).steps[0]
    for c in (0.1, 10.0):
        cache = vf.build_projection_cache(blocks, y)
        cache_c = vf.build_projection_cache(blocks, c * y)
        assert cache_c.sigma_sq == pytest.approx(c**2 * cache.sigma_sq, rel=1e-12)
        first_c = vf.run_forward(vf.from_arrays(c * y, t, x[:, 1:]), basis, ONE_STEP).steps[0]
        assert first_c.index == first.index
        assert first_c.delta_rss == pytest.approx(c**2 * first.delta_rss, rel=1e-9)
