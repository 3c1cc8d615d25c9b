"""Generator fidelity, metrics and aggregation tests."""

import math
import tracemalloc

import numpy as np
import pytest

import vcforward as vf
from vcforward import simulation
from vcforward.errors import ConfigError, DataError
from vcforward.simulation import EXAMPLE_COEFFS

from oracles import benchmark_draw


def _refit(train, basis, sel):
    """Least-squares fit of the covariates ``sel`` on a fresh factor."""
    bmat = vf.basis_matrix(basis, train.t)
    blocks = [vf.DesignBlock(j, bmat * train.x[:, j : j + 1]) for j in sel]
    return vf.fit_full(vf.build_projection_cache(blocks, train.y), train.y)


def test_scenario_validation():
    with pytest.raises(ConfigError):
        vf.SimScenario("ex3")
    with pytest.raises(ConfigError):
        vf.SimScenario("ex1", p=2)
    with pytest.raises(ConfigError):
        vf.SimScenario("ex1", t1=-1.0)
    with pytest.raises(ConfigError):
        vf.SimScenario("ex1", test_fraction=1.5)
    assert vf.SimScenario("ex1").support == (1, 2, 3, 4)
    assert vf.SimScenario("ex2").support == tuple(range(1, 9))


def test_true_correlations_closed_forms():
    assert vf.true_correlations(0.0, 0.0) == (0.0, 0.0)
    xx, xt = vf.true_correlations(2.0, 0.0)
    assert xx == pytest.approx(0.25) and xt == 0.0
    xx, xt = vf.true_correlations(3.0, 1.0)
    assert xx == pytest.approx(9.0 / 21.0)
    assert xt == pytest.approx(3.0 / math.sqrt(42.0))


def test_generate_reproducible_and_split():
    sc = vf.SimScenario("ex1", n=120, p=10, t1=2.0, t2=1.0, seed=77, reps=1)
    a_train, a_test, support = vf.generate(sc, 3)
    b_train, b_test, _ = vf.generate(sc, 3)
    np.testing.assert_array_equal(a_train.y, b_train.y)
    np.testing.assert_array_equal(a_train.x, b_train.x)
    np.testing.assert_array_equal(a_test.y, b_test.y)
    assert a_train.n == 120 and a_test.n == 60
    assert support == (1, 2, 3, 4)
    # Different repetitions and the train/test streams must differ.
    c_train, _, _ = vf.generate(sc, 4)
    assert not np.array_equal(a_train.y, c_train.y)
    assert not np.array_equal(a_train.y[: a_test.n], a_test.y)


@pytest.mark.parametrize("example", ["ex1", "ex2"])
@pytest.mark.parametrize("t1,t2", [(0.0, 0.0), (3.0, 1.0)])
def test_generate_matches_the_oracle_draw_bit_for_bit(example, t1, t2, monkeypatch):
    sc = vf.SimScenario(example, n=60, p=25, t1=t1, t2=t2, seed=41, reps=3)
    # One generator call fills the whole matrix, then seven-row blocks do:
    # eight full blocks and a partial one for the training draw, four and
    # a partial one for the test draw.
    for cells in (simulation.DRAW_BLOCK_CELLS, 7 * sc.p):
        monkeypatch.setattr(simulation, "DRAW_BLOCK_CELLS", cells)
        for rep in (0, 2):
            train, test, _ = vf.generate(sc, rep)
            for purpose, ds in ((0, train), (1, test)):
                y, t, x, constant = benchmark_draw(
                    EXAMPLE_COEFFS[example], 41, rep, purpose, ds.n, sc.p, t1, t2
                )
                assert ds.y.tobytes() == y.tobytes()
                assert ds.t.tobytes() == t.tobytes()
                assert ds.x[:, 1:].tobytes() == x.tobytes()
                assert ds.x[:, 0].tobytes() == np.ones(ds.n).tobytes()
                assert ds.constant_columns == constant == ()
                assert ds.column_names == ("intercept", *(f"x{j}" for j in range(1, 26)))


def test_generate_draws_straight_into_the_design_matrices():
    # The draw is written into each dataset's (n, p+1) matrix in row
    # blocks, with no full-size copy of the raw normals or of the matrix.
    sc = vf.SimScenario("ex2", n=400, p=2000, t1=2.0, t2=1.0, seed=5, reps=1)
    tracemalloc.start()
    try:
        train, test, _ = vf.generate(sc, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    held = train.x.nbytes + test.x.nbytes
    assert peak < 1.2 * held, f"peak {peak / held:.2f} times the two design matrices"


def test_generate_index_variable_in_unit_interval():
    for t1, t2 in [(0.0, 0.0), (3.0, 2.0)]:
        sc = vf.SimScenario("ex1", n=500, p=6, t1=t1, t2=t2, seed=5, reps=1)
        train, test, _ = vf.generate(sc, 0)
        for ds in (train, test):
            assert ds.t.min() >= 0.0 and ds.t.max() <= 1.0
            assert np.array_equal(ds.x[:, 0], np.ones(ds.n))


def test_generator_moments_match_closed_forms():
    sc = vf.SimScenario("ex1", n=4000, p=8, t1=3.0, t2=1.0, seed=13, reps=1)
    train, _, _ = vf.generate(sc, 0)
    xs = train.x[:, 1:]
    corr = np.corrcoef(xs, rowvar=False)
    emp_xx = corr[np.triu_indices(8, 1)].mean()
    emp_xt = np.mean([np.corrcoef(xs[:, j], train.t)[0, 1] for j in range(8)])
    xx, xt = vf.true_correlations(3.0, 1.0)
    assert abs(emp_xx - xx) <= 0.03
    assert abs(emp_xt - xt) <= 0.03


def test_signal_variance_recovered_at_scale():
    # Regressing on the true design at n = 4000 recovers the unit noise
    # variance.
    sc = vf.SimScenario("ex1", n=4000, p=6, t1=0.0, t2=0.0, seed=19, reps=1)
    train, _, support = vf.generate(sc, 0)
    basis = vf.build_basis(7, 4)
    fit = _refit(train, basis, (0, *support))
    assert abs(fit.sigma_sq - 1.0) <= 0.1


def test_snr_zero_coefficients(monkeypatch):
    monkeypatch.setitem(EXAMPLE_COEFFS, "exz", {1: lambda t: np.zeros_like(t)})
    sc = vf.SimScenario("exz", n=100, p=1, seed=1, reps=1)
    assert vf.snr(sc, 10_000) == 0.0


def test_snr_requires_enough_samples():
    sc = vf.SimScenario("ex1", seed=1)
    with pytest.raises(ConfigError):
        vf.snr(sc, 500)


def test_snr_matches_reported_values():
    for example, t1, t2, want in [("ex1", 2.0, 0.0, 3.66), ("ex2", 0.0, 0.0, 47.68)]:
        sc = vf.SimScenario(example, n=400, p=10, t1=t1, t2=t2, seed=1, reps=1)
        est = vf.snr(sc, 100_000)
        assert abs(est - want) / want <= 0.10


def test_evaluate_rep_counts():
    sc = vf.SimScenario("ex1", n=200, p=10, seed=3, reps=1)
    train, test, support = vf.generate(sc, 0)
    basis = vf.build_basis(5, 4)
    sel = (0, *support)
    fit = _refit(train, basis, sel)
    m = vf.evaluate_rep(sel, support, fit, basis, test)
    assert m.tp == len(support) and m.fp == 0
    assert m.model_size == len(sel)
    assert m.tp + m.fp == m.model_size - 1
    sel_bad = (0, *support, 7, 9)
    fit_bad = _refit(train, basis, sel_bad)
    m_bad = vf.evaluate_rep(sel_bad, support, fit_bad, basis, test)
    assert m_bad.fp == 2 and m_bad.tp == len(support)


def test_evaluate_rep_intercept_only_pe_near_response_variance():
    sc = vf.SimScenario("ex1", n=400, p=6, seed=9, reps=1)
    train, test, support = vf.generate(sc, 0)
    basis = vf.build_basis(7, 4)
    fit = _refit(train, basis, (0,))
    m = vf.evaluate_rep((0,), support, fit, basis, test)
    assert m.tp == 0 and m.fp == 0
    assert m.pe == pytest.approx(np.var(test.y), rel=0.25)


def test_oracle_fit_prediction_error_near_noise_floor():
    basis = vf.build_basis(7, 4)
    pes = []
    for r in range(20):
        sc = vf.SimScenario("ex1", n=400, p=6, seed=55, reps=20)
        train, test, support = vf.generate(sc, r)
        sel = (0, *support)
        fit = _refit(train, basis, sel)
        pes.append(vf.evaluate_rep(sel, support, fit, basis, test).pe)
    assert np.mean(pes) == pytest.approx(1.0, abs=0.15)


def test_pe_invariant_to_test_ordering():
    sc = vf.SimScenario("ex1", n=200, p=6, seed=23, reps=1)
    train, test, support = vf.generate(sc, 0)
    basis = vf.build_basis(6, 4)
    sel = (0, 1, 2)
    fit = _refit(train, basis, sel)
    perm = np.random.default_rng(1).permutation(test.n)
    shuffled = vf.Dataset(
        y=test.y[perm],
        t=test.t[perm],
        x=test.x[perm],
        column_names=test.column_names,
        rescale_map=test.rescale_map,
    )
    a = vf.evaluate_rep(sel, support, fit, basis, test).pe
    b = vf.evaluate_rep(sel, support, fit, basis, shuffled).pe
    assert a == pytest.approx(b, rel=1e-12)


def test_aggregate_single_and_constant():
    one = vf.RepMetrics(tp=3, fp=1, pe=1.5, model_size=5)
    agg = vf.aggregate([one])
    assert (agg.mean_tp, agg.mean_fp, agg.mean_pe, agg.mean_size) == (3.0, 1.0, 1.5, 5.0)
    assert agg.rsd_tp == agg.rsd_fp == agg.rsd_pe == 0.0
    assert math.isnan(agg.snr_estimate)
    const = [vf.RepMetrics(2, 0, 1.0, 3)] * 7
    agg_c = vf.aggregate(const, snr_estimate=4.2)
    assert agg_c.rsd_pe == 0.0
    assert agg_c.snr_estimate == 4.2


def test_aggregate_empty_rejected():
    with pytest.raises(DataError):
        vf.aggregate([])


def test_robust_sd_linear_interpolation_convention():
    # Quartiles of 1..5 by linear interpolation are 2 and 4.
    assert vf.robust_sd([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(2.0 / 1.349)
    reps = [vf.RepMetrics(0, 0, float(v), 1) for v in (1, 2, 3, 4, 5)]
    assert vf.aggregate(reps).rsd_pe == pytest.approx(2.0 / 1.349)


def test_aggregate_means_within_value_ranges():
    rng = np.random.default_rng(4)
    reps = [
        vf.RepMetrics(int(rng.integers(0, 5)), int(rng.integers(0, 3)), float(rng.uniform(0.5, 3.0)), 5)
        for _ in range(30)
    ]
    agg = vf.aggregate(reps)
    assert min(r.tp for r in reps) <= agg.mean_tp <= max(r.tp for r in reps)
    assert min(r.pe for r in reps) <= agg.mean_pe <= max(r.pe for r in reps)


def test_run_rep_end_to_end_consistency():
    sc = vf.SimScenario("ex1", n=300, p=50, t1=0.0, t2=0.0, seed=6, reps=1)
    basis = vf.build_basis(6, 4)
    metrics, trace = vf.run_rep(sc, 0, basis, vf.EbicConfig(eta=0.0, patience=5))
    assert metrics.model_size == len(trace.final_set)
    assert metrics.tp + metrics.fp == metrics.model_size - 1
    assert metrics.pe > 0.0


def test_run_rep_guards_small_samples():
    sc = vf.SimScenario("ex1", n=60, p=10, seed=6, reps=1)
    basis = vf.build_basis(7, 4)
    with pytest.raises(DataError):
        vf.run_rep(sc, 0, basis, vf.EbicConfig())


def test_benchmark_ex2_correlated_true_positive_rate():
    # Eight active covariates under correlated covariates and index.
    basis = vf.build_basis(7, 4)
    config = vf.EbicConfig(eta=0.0, patience=5)
    sc = vf.SimScenario("ex2", n=400, p=1000, t1=3.0, t2=1.0, seed=1, reps=50)
    tps = [vf.run_rep(sc, r, basis, config)[0].tp for r in range(50)]
    assert np.mean(tps) >= 7.8
