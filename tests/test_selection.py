"""Forward-selection algorithm tests: criterion, stopping, rollback, screen."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

import vcforward as vf
from vcforward import regression, selection
from vcforward.errors import ConfigError, NumericalError, SingularDesignError
from vcforward.regression import CandidateGrams, sweep

from oracles import lstsq_sigma_sq, residual_pivot_ratio

# One forward step from a given model: how the shipped route scores a pool.
ONE_STEP = vf.EbicConfig(max_steps=1)


def _noise_dataset(seed, n=200, p=20):
    rng = np.random.default_rng(seed)
    t = rng.random(n)
    x = rng.standard_normal((n, p))
    y = rng.standard_normal(n)
    return vf.from_arrays(y, t, x)


def test_ebic_trivial_values():
    assert vf.ebic(1.0, 0, 400, 1000, 7, 0.0) == 0.0
    # Empty penalty: eta is irrelevant at set size zero.
    assert vf.ebic(2.0, 0, 400, 1000, 7, 0.0) == vf.ebic(2.0, 0, 400, 1000, 7, 0.9)


def test_ebic_hand_computed_value():
    # 400 log 2 + 3 * 7 * log 400, checked by independent arithmetic.
    want = 400.0 * math.log(2.0) + 21.0 * math.log(400.0)
    got = vf.ebic(2.0, 3, 400, 1000, 7, 0.0)
    assert got == pytest.approx(want, rel=1e-13)
    assert got == pytest.approx(403.0796277132457, rel=1e-12)


def test_ebic_reduces_to_bic_at_eta_zero():
    rng = np.random.default_rng(21)
    for _ in range(25):
        s = float(rng.uniform(0.01, 5.0))
        k = int(rng.integers(0, 9))
        n = int(rng.integers(20, 2000))
        p = int(rng.integers(2, 5000))
        dim = int(rng.integers(2, 9))
        bic = n * math.log(s) + k * dim * math.log(n)
        assert vf.ebic(s, k, n, p, dim, 0.0) == bic


def test_ebic_underflow_error():
    with pytest.raises(NumericalError):
        vf.ebic(0.0, 1, 100, 10, 5, 0.0)


def test_auto_eta_value_and_clamp():
    v = vf.auto_eta(400, 1000)
    assert v == pytest.approx(1.0 - math.log(400) / (3.0 * math.log(1000)), rel=1e-14)
    assert v == pytest.approx(0.711, abs=1e-3)
    with pytest.raises(ConfigError):
        vf.auto_eta(400, 1)
    # Low-dimensional regimes push the rule negative; resolve_eta clamps.
    cfg = vf.EbicConfig(eta_rule="auto")
    assert vf.auto_eta(10_000, 3) < 0.0
    assert cfg.resolve_eta(10_000, 3) == 0.0


@pytest.mark.parametrize(
    "kwargs",
    [
        {"eta": -0.5},
        {"eta": float("nan")},
        {"eta": float("inf")},
        {"eta": 0.5, "eta_rule": "auto"},
        {"patience": 0},
        {"eta_rule": "magic"},
        {"max_steps": -3},
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(ConfigError):
        vf.EbicConfig(**kwargs)


def test_one_step_from_a_single_member_pool():
    rng = np.random.default_rng(22)
    basis = vf.build_basis(5, 3)
    t = rng.random(50)
    y = rng.standard_normal(50)
    ds = vf.from_arrays(y, t, rng.standard_normal((50, 9)))
    trace = vf.run_forward(ds, basis, ONE_STEP, candidate_pool=[9])
    assert [s.index for s in trace.steps] == [9] and trace.steps[0].delta_rss >= 0.0


def test_one_step_from_an_empty_or_all_degenerate_pool():
    rng = np.random.default_rng(23)
    basis = vf.build_basis(5, 3)
    t = rng.random(40)
    y = rng.standard_normal(40)
    # Column 5 repeats the intercept, so its block duplicates the model's.
    x = rng.standard_normal((40, 5))
    x[:, 4] = 1.0
    ds = vf.from_arrays(y, t, x)
    for pool in ([], [5]):
        trace = vf.run_forward(ds, basis, ONE_STEP, candidate_pool=pool)
        assert trace.steps == () and trace.stop_reason == "candidates_exhausted"


def test_one_step_tie_break_prefers_small_index():
    rng = np.random.default_rng(24)
    basis = vf.build_basis(5, 3)
    t = rng.random(60)
    y = rng.standard_normal(60) + rng.standard_normal(60)
    x = rng.standard_normal((60, 8))
    x[:, 6] = x[:, 3]  # covariates 4 and 7 are twins
    ds = vf.from_arrays(y, t, x)
    for pool in ([4, 7], [7, 4]):
        trace = vf.run_forward(ds, basis, ONE_STEP, candidate_pool=pool)
        assert trace.steps[0].index == 4


def test_first_step_on_benchmark_picks_a_true_covariate():
    sc = vf.SimScenario("ex1", n=400, p=1000, t1=0.0, t2=0.0, seed=101, reps=1)
    train, support = vf.generate(sc, 0)
    trace = vf.run_forward(train, vf.build_basis(7, 4), ONE_STEP, candidate_pool=range(1, 1001))
    assert trace.steps[0].index in support


def test_first_step_agrees_with_brute_force_refits():
    rng = np.random.default_rng(25)
    basis = vf.build_basis(4, 3)
    for _ in range(15):
        n = int(rng.integers(50, 101))
        p = int(rng.integers(4, 13))
        t = rng.random(n)
        x = np.column_stack([np.ones(n), rng.standard_normal((n, p))])
        y = rng.standard_normal(n) + x[:, 1] * (2.0 - t)
        blocks = {j: vf.design_block(basis, t, x[:, j], covariate_index=j) for j in range(p + 1)}
        ds = vf.from_arrays(y, t, x[:, 1:])
        trace = vf.run_forward(ds, basis, ONE_STEP, candidate_pool=range(1, p + 1))
        sigmas = {
            j: vf.build_projection_cache([blocks[0], blocks[j]], y).sigma_sq
            for j in range(1, p + 1)
        }
        j_brute = min(sigmas, key=lambda j: (sigmas[j], j))
        assert trace.steps[0].index == j_brute


def _adversarial_instance(rng):
    """Small dataset whose columns hold a signal covariate ``base``, its
    near-duplicate base + 1e-9 z, noise scaled by 1e8 and by 1e-8, an
    all-zero column and plain noise, in random positions."""
    n = int(rng.integers(60, 121))
    p = int(rng.integers(6, 13))
    t = rng.random(n)
    base = rng.standard_normal(n)
    special = [
        base,
        base + 1e-9 * rng.standard_normal(n),
        1e8 * rng.standard_normal(n),
        1e-8 * rng.standard_normal(n),
        np.zeros(n),
    ]
    cols = special + [rng.standard_normal(n) for _ in range(p - len(special))]
    order = rng.permutation(p)
    x = np.column_stack([cols[i] for i in order])
    position = [int(np.nonzero(order == i)[0][0]) + 1 for i in range(len(special))]
    y = 2.0 * base * (1.0 + t) + rng.standard_normal(n)
    return vf.from_arrays(y, t, x), position


def test_run_forward_agrees_with_brute_force_refits_at_every_step():
    basis = vf.build_basis(4, 3)
    rng = np.random.default_rng(52)
    for _ in range(10):
        ds, (base, twin, _, _, zero) = _adversarial_instance(rng)
        bmat = vf.basis_matrix(basis, ds.t)
        blocks = {j: vf.DesignBlock(j, bmat * ds.x[:, j : j + 1]) for j in range(ds.p + 1)}
        trace = vf.run_forward(
            ds, basis, vf.EbicConfig(eta=0.0, patience=5), candidate_pool=range(1, ds.p + 1)
        )
        model = [0]
        accepted = [s.index for s in trace.steps]
        for j_run in accepted + [None]:
            current = [blocks[j] for j in model]
            ratios = {
                j: residual_pivot_ratio(current, blocks[j])
                for j in range(1, ds.p + 1)
                if j not in model
            }
            # Keep the oracle's usability decisions clear of the rank rule's
            # 1e-10 edge, where rounding may decide either way.
            assert not any(1e-12 < r < 1e-8 for r in ratios.values()), ratios
            sigmas = {
                j: lstsq_sigma_sq(current + [blocks[j]], ds.y)
                for j, r in ratios.items()
                if r > 1e-10
            }
            if j_run is None:
                if trace.stop_reason == "candidates_exhausted":
                    assert not sigmas
                break
            best = min(sigmas.values())
            want = min(j for j, s in sigmas.items() if s <= best * (1.0 + 1e-12))
            assert j_run == want
            model.append(j_run)
        assert not {base, twin} <= set(accepted)
        assert zero not in accepted


def test_confirmation_rescores_until_the_winner_is_explicit():
    # Downdated-Gram scores that put a degenerate twin first and misorder two
    # usable candidates: the explicit re-scoring must still find the winner.
    rng = np.random.default_rng(54)
    n = 80
    t = rng.random(n)
    x = rng.standard_normal((n, 4))
    x[:, 1] = x[:, 0] + 1e-9 * rng.standard_normal(n)
    y = 2.0 * x[:, 0] + x[:, 2] * t + rng.standard_normal(n)
    basis = vf.build_basis(5, 3)
    bmat = vf.basis_matrix(basis, t)
    cache = vf.build_projection_cache([vf.DesignBlock(0, bmat), vf.DesignBlock(1, bmat * x[:, :1])], y)
    xfull = np.column_stack([np.ones(n), x])
    grams = CandidateGrams(bmat, xfull, np.array([2, 3, 4]))
    # The explicit reference: each candidate's drop on its extended factor.
    drops, extensions = {}, {}
    for j in (2, 3, 4):
        try:
            extensions[j] = vf.extend_cache(cache, vf.DesignBlock(j, bmat * x[:, j - 1 : j]))
            drops[j] = cache.sigma_sq - extensions[j].sigma_sq
        except SingularDesignError:
            drops[j] = -np.inf
    assert max(drops, key=drops.get) == 3
    for scores in ([1e9, 1.0, 2.0], [1e9, 2.0, 2.0 * (1.0 + 1e-7)], [np.inf, 0.5, 0.0]):
        pos, extended = selection._confirmed_winner(cache, grams, np.array(scores))
        assert pos == 1
        # The winner comes with its factor extension, the step's next model.
        assert extended.index_set == (0, 1, 3)
        np.testing.assert_array_equal(extended.q, extensions[3].q)
        assert extended.sigma_sq == extensions[3].sigma_sq
    grams.alive[:] = False
    dead = selection._confirmed_winner(cache, grams, np.array([1.0, 2.0, 3.0]))
    assert dead is None
    # Many exact ties, each re-scored on its own factor extension: the tie
    # goes to the first position.
    copies = CandidateGrams(bmat, np.repeat(x[:, 2:3], 300, axis=1), np.arange(300))
    scores = np.ones(300)
    pos, extended = selection._confirmed_winner(cache, copies, scores)
    assert pos == 0
    assert extended.index_set == (0, 1, 0)


def test_run_forward_memory_stays_below_the_candidate_tensor():
    # x is 6.4 MB; one (n, p, dim) float64 stack of the candidate blocks
    # would be 45 MB.
    n, p = 400, 2000
    rng = np.random.default_rng(53)
    x = rng.standard_normal((n, p))
    t = rng.random(n)
    ds = vf.from_arrays(2.0 * x[:, 0] * t + rng.standard_normal(n), t, x)
    basis = vf.build_basis(7, 4)
    tracemalloc.start()
    try:
        trace = vf.run_forward(ds, basis, vf.EbicConfig(eta=0.0, max_steps=3))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(trace.steps) == 3
    assert peak < 40e6, f"peak traced allocation {peak / 1e6:.1f} MB"


def test_run_forward_neither_copies_nor_squares_x():
    # The default pool is every covariate: the forward pass reads it as a
    # view of x and squares it one column block at a time, so its traced
    # peak stays below one copy of x.
    n, p = 400, 2000
    rng = np.random.default_rng(53)
    x = rng.standard_normal((n, p))
    t = rng.random(n)
    ds = vf.from_arrays(2.0 * x[:, 0] * t + rng.standard_normal(n), t, x)
    basis = vf.build_basis(7, 4)
    tracemalloc.start()
    try:
        trace = vf.run_forward(ds, basis, vf.EbicConfig(eta=0.0, max_steps=3))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(trace.steps) == 3
    assert peak < ds.x.nbytes, f"peak traced allocation {peak / 1e6:.1f} MB"


def test_candidate_grams_hold_only_grams_and_rank_scales():
    # The dim (dim + 1) / 2 = 28 packed Gram entries and one rank-rule scale
    # per candidate: 29 floats, 232 bytes at dim 7, 233 with the live mask
    # and about 242 traced with the index array built here (409.5 while the
    # pool held the full dim x dim Grams, 49 floats). The set-up's GEMM
    # product over x is not kept.
    n, p = 400, 2000
    rng = np.random.default_rng(53)
    x = rng.standard_normal((n, p))
    basis = vf.build_basis(7, 4)
    bmat = vf.basis_matrix(basis, rng.random(n))
    tracemalloc.start()
    try:
        grams = CandidateGrams(bmat, x, np.arange(p))
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert grams.gram.shape == (28, p)
    assert held / p < 250, f"{held / p:.1f} bytes held per candidate"


def test_candidate_grams_pack_the_lower_triangles_of_the_explicit_grams():
    # Row r of the pool is G[rows[r], cols[r]] with (cols, rows) in
    # np.triu_indices order: column c's entries G[c:, c], one column after
    # another. A contiguous pool of 600 columns spans three set-up blocks of
    # 256, the last one partial; the gathered pool is a copy of x's columns.
    # Every entry sums nonnegative terms (B-spline products times x^2), so a
    # relative tolerance holds.
    n = 300
    rng = np.random.default_rng(61)
    x = rng.standard_normal((n, 700))
    basis = vf.build_basis(7, 4)
    bmat = vf.basis_matrix(basis, rng.random(n))
    cols, rows = np.triu_indices(basis.dim)
    for index in (np.arange(50, 650), np.sort(rng.choice(700, 333, replace=False))):
        grams = CandidateGrams(bmat, x, index)
        assert grams.gram.shape == (28, index.size)
        for pos, j in enumerate(index):
            w = bmat * x[:, j : j + 1]
            explicit = w.T @ w
            np.testing.assert_allclose(grams.gram[:, pos], explicit[rows, cols], rtol=1e-12)
            assert grams.col_sq_max[pos] == pytest.approx(np.diag(explicit).max(), rel=1e-12)
        np.testing.assert_array_equal(grams.col_sq_max, grams.gram[rows == cols].max(axis=0))


def test_run_forward_updates_the_grams_only_before_a_sweep(monkeypatch):
    # Each sweep projects the factor columns its pool has not seen: the
    # intercept's 7 in the first, the last accepted block's 7 in each later
    # one. A pass that stops on patience or max_steps after a step sweeps,
    # and so projects, no more.
    calls, pools = [], []
    sweep_of = selection.sweep

    def counting(grams, cache):
        calls.append(cache.q.shape[1] - grams.m)
        pools.append(grams)
        return sweep_of(grams, cache)

    monkeypatch.setattr(selection, "sweep", counting)
    sc = vf.SimScenario("ex2", n=400, p=2000, t1=2.0, t2=1.0, seed=5, reps=1)
    train, _ = vf.generate(sc, 0)
    basis = vf.build_basis(7, 4)
    for max_steps, stop, steps in ((None, "patience_exhausted", 13), (4, "max_steps", 4)):
        calls.clear()
        trace = vf.run_forward(train, basis, vf.EbicConfig(eta=0.0, max_steps=max_steps))
        assert (trace.stop_reason, len(trace.steps)) == (stop, steps)
        assert calls == [7] * steps
        # The factor has 7 (steps + 1) columns; the last block's never came off.
        assert pools[-1].m == 7 * steps


def test_run_forward_sweeps_once_per_step_and_once_when_the_pool_runs_dry(monkeypatch):
    # A step accepts the confirmed winner on its factor extension, so no
    # candidate is dropped for a second sweep: one sweep per accepted step,
    # and one more that finds no usable candidate when the pool runs dry.
    calls = []
    sweep = selection.sweep

    def counting(*args):
        calls.append(1)
        return sweep(*args)

    monkeypatch.setattr(selection, "sweep", counting)
    runs = []
    rng = np.random.default_rng(52)
    basis = vf.build_basis(4, 3)
    for _ in range(10):
        ds, _ = _adversarial_instance(rng)
        runs.append((ds, basis, range(1, ds.p + 1)))
    sc = vf.SimScenario("ex2", n=400, p=2000, t1=2.0, t2=1.0, seed=5, reps=1)
    train, _ = vf.generate(sc, 0)
    runs.append((train, vf.build_basis(7, 4), None))
    dry = 0
    for ds, basis, pool in runs:
        calls.clear()
        trace = vf.run_forward(ds, basis, vf.EbicConfig(eta=0.0), candidate_pool=pool)
        steps = len(trace.steps)
        extra = trace.stop_reason == "candidates_exhausted" and ds.p > steps
        assert len(calls) == steps + extra, (trace.stop_reason, steps)
        dry += extra
    assert dry >= 1


def test_each_step_extends_the_factor_once_per_short_listed_candidate(monkeypatch):
    # The confirmation's extension of the winner is the step's next model:
    # per pass, extend_cache runs once per initial block and once per
    # short-listed candidate, and never a second time for the winner. A
    # duplicated covariate puts two exact ties on a short-list.
    calls, short_lists = [], []
    extend, sweep_of = regression.extend_cache, selection.sweep

    def counting(cache, block):
        calls.append((cache.index_set, block.covariate_index))
        return extend(cache, block)

    def short_listing(grams, cache):
        scores = sweep_of(grams, cache)
        best = scores.max()
        near = grams.alive & (scores >= best * (1.0 - selection.CONFIRM_REL_TOL))
        short_lists.append(grams.index[near].tolist())
        return scores

    monkeypatch.setattr(regression, "extend_cache", counting)
    monkeypatch.setattr(selection, "extend_cache", counting)
    monkeypatch.setattr(selection, "sweep", short_listing)
    sc = vf.SimScenario("ex2", n=400, p=200, t1=2.0, t2=1.0, seed=5, reps=1)
    train, _ = vf.generate(sc, 0)
    x = train.x[:, 1:].copy()
    x[:, 9] = x[:, 0]
    ds = vf.from_arrays(train.y, train.t, x)
    trace = vf.run_forward(ds, vf.build_basis(7, 4), vf.EbicConfig(eta=0.0))
    assert [1, 10] in short_lists
    assert 10 not in trace.final_set
    assert calls[:1] == [((), 0)]
    accepted = [s.index for s in trace.steps]
    models = [trace.initial_set + tuple(accepted[:i]) for i in range(len(short_lists))]
    want = [(model, j) for model, listed in zip(models, short_lists) for j in listed]
    assert calls[1:] == want
    assert len(set(calls)) == len(calls) == 1 + sum(map(len, short_lists))


def test_sweep_and_run_forward_do_not_depend_on_the_tile_width(monkeypatch):
    # About 1000 candidates, swept in tiles of 7, of 300 (which does not
    # divide the pool) and in one tile. Each
    # candidate's arithmetic is the same in every tile, but OpenBLAS's GEMM
    # makes a column's last bits depend on the number of columns it is
    # given, so the scores agree to 1e-12 relative (8e-15 measured), and
    # bitwise in one tile.
    sc = vf.SimScenario("ex2", n=400, p=1000, t1=2.0, t2=1.0, seed=5, reps=1)
    train, _ = vf.generate(sc, 0)
    basis = vf.build_basis(7, 4)

    def run(width):
        monkeypatch.setattr(regression, "TILE_COLUMNS", width)
        _, cache, grams = selection._start(train, basis, (0,), None)
        first = sweep(grams, cache)
        second = sweep(grams, vf.extend_cache(cache, grams.block(int(np.argmax(first)))))
        return (first, second), vf.run_forward(train, basis, vf.EbicConfig(eta=0.0))

    scores, trace = run(train.p)
    assert len(trace.steps) > 5
    for width in (7, 300, train.p, 2 * train.p):
        got, other = run(width)
        for a, b in zip(got, scores):
            assert (np.isfinite(a) == np.isfinite(b)).all()
            if width >= train.p:
                np.testing.assert_array_equal(a, b)
            else:
                fin = np.isfinite(b)
                np.testing.assert_allclose(a[fin], b[fin], rtol=1e-12, atol=0.0)
        assert other == trace
        np.testing.assert_array_equal(other.final_cache.r, trace.final_cache.r)
        np.testing.assert_array_equal(other.final_cache.q, trace.final_cache.q)


def test_a_steps_scratch_does_not_grow_with_the_pool():
    # Traced peak of a pass, less the memory before it and the packed Grams
    # and rank-rule scales the pool holds (dim (dim + 1) / 2 + 1 floats per
    # candidate): 2.50 MB at p=2000 (one tile) and 2.60 MB at p=8000 (two).
    # With the whole pool swept at once it was 2.56 and 5.03 MB.
    n, dim = 400, 7
    basis = vf.build_basis(7, 4)
    assert basis.dim == dim
    for p in (2000, 8000):
        rng = np.random.default_rng(53)
        x = rng.standard_normal((n, p))
        t = rng.random(n)
        ds = vf.from_arrays(2.0 * x[:, 0] * t + rng.standard_normal(n), t, x)
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            trace = vf.run_forward(ds, basis, vf.EbicConfig(eta=0.0, max_steps=3))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(trace.steps) == 3
        scratch = peak - before - p * (dim * (dim + 1) // 2 + 1) * 8
        assert scratch < 3.0e6, f"p={p}: {scratch / 1e6:.2f} MB of scratch"


def test_the_confirmation_holds_only_its_short_list():
    # Traced peak of one step's confirmation, less the extension it returns,
    # over three steps: 0.072 MB at both p=2000 and p=8000. With
    # pool-length arrays of exact scores, checked flags and current scores
    # it was 0.106 and 0.208 MB.
    n = 400
    basis = vf.build_basis(7, 4)
    scratch = {}
    for p in (2000, 8000):
        rng = np.random.default_rng(53)
        x = rng.standard_normal((n, p))
        t = rng.random(n)
        ds = vf.from_arrays(2.0 * x[:, 0] * t + rng.standard_normal(n), t, x)
        _, cache, grams = selection._start(ds, basis, (0,), None)
        for _ in range(3):
            scores = sweep(grams, cache)
            tracemalloc.start()
            try:
                pos, cache = selection._confirmed_winner(cache, grams, scores)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            grams.alive[pos] = False
            held = cache.q.nbytes + cache.r.nbytes + cache.residual_y.nbytes
            scratch[p] = max(scratch.get(p, 0), peak - held)
    assert scratch[8000] < scratch[2000] + 0.01e6, scratch


def test_run_forward_noise_keeps_intercept_mostly():
    # With pure noise the criterion should rise immediately for the first
    # candidate in nearly every seeded run.
    basis = vf.build_basis(5, 4)
    config = vf.EbicConfig(eta=0.0, patience=5)
    hits = 0
    for seed in range(50):
        ds = _noise_dataset(seed)
        trace = vf.run_forward(ds, basis, config)
        assert trace.steps, "patience window should record provisional steps"
        if trace.steps[0].ebic > trace.ebic_initial:
            hits += 1
        # Rollback must agree with brute-force refits over visited prefixes.
        if trace.final_set == trace.initial_set:
            continue
    assert hits >= 45, f"criterion rose for only {hits}/50 noise runs"


def test_run_forward_noise_final_set_is_intercept():
    basis = vf.build_basis(5, 4)
    config = vf.EbicConfig(eta=0.0, patience=5)
    finals = [vf.run_forward(_noise_dataset(s), basis, config).final_set for s in range(12)]
    assert sum(f == (0,) for f in finals) >= 10


def test_run_forward_benchmark_recovers_support():
    sc = vf.SimScenario("ex1", n=400, p=1000, t1=0.0, t2=0.0, seed=33, reps=1)
    train, support = vf.generate(sc, 0)
    basis = vf.build_basis(7, 4)
    trace = vf.run_forward(train, basis, vf.EbicConfig(eta=0.0, patience=5))
    assert set(trace.final_set) == {0, *support}
    assert trace.stop_reason == "patience_exhausted"


def test_run_forward_nesting_and_monotonicity():
    sc = vf.SimScenario("ex1", n=300, p=60, t1=2.0, t2=1.0, seed=5, reps=1)
    train, _ = vf.generate(sc, 0)
    basis = vf.build_basis(6, 4)
    trace = vf.run_forward(train, basis, vf.EbicConfig(eta=0.0, patience=5))
    seen = set(trace.initial_set)
    for step in trace.steps:
        assert step.index not in seen
        seen.add(step.index)
    path = trace.sigma_sq_path
    assert all(b <= a for a, b in zip(path, path[1:]))
    assert tuple(trace.final_set[: len(trace.initial_set)]) == trace.initial_set


def test_run_forward_rollback_minimizes_ebic_over_prefixes():
    sc = vf.SimScenario("ex1", n=240, p=40, t1=3.0, t2=2.0, seed=8, reps=1)
    train, _ = vf.generate(sc, 0)
    basis = vf.build_basis(6, 4)
    config = vf.EbicConfig(eta=0.0, patience=3)
    trace = vf.run_forward(train, basis, config)
    best = min(trace.ebic_path)
    chosen_len = len(trace.final_set) - len(trace.initial_set)
    assert trace.ebic_path[chosen_len] == best
    # Cross-check the recorded criterion values with full refits.
    bmat = vf.basis_matrix(basis, train.t)
    prefix = list(trace.initial_set)
    for k, step in enumerate(trace.steps, start=1):
        prefix.append(step.index)
        blocks = [vf.DesignBlock(j, bmat * train.x[:, j : j + 1]) for j in prefix]
        sigma = vf.fit_full(vf.build_projection_cache(blocks, train.y), train.y).sigma_sq
        want = vf.ebic(sigma, len(prefix), train.n, train.p, basis.dim, 0.0)
        assert step.ebic == pytest.approx(want, rel=1e-9)


def test_run_forward_deterministic():
    sc = vf.SimScenario("ex1", n=200, p=80, t1=2.0, t2=0.0, seed=17, reps=1)
    train, _ = vf.generate(sc, 0)
    basis = vf.build_basis(5, 4)
    config = vf.EbicConfig(eta=0.0, patience=4)
    t1 = vf.run_forward(train, basis, config)
    t2 = vf.run_forward(train, basis, config)
    assert t1 == t2


def test_run_forward_respects_max_steps():
    sc = vf.SimScenario("ex1", n=300, p=30, t1=0.0, t2=0.0, seed=2, reps=1)
    train, _ = vf.generate(sc, 0)
    basis = vf.build_basis(5, 4)
    trace = vf.run_forward(train, basis, vf.EbicConfig(eta=0.0, patience=5, max_steps=2))
    assert len(trace.steps) == 2
    assert trace.stop_reason == "max_steps"


def test_run_forward_exhausts_small_pool():
    ds = _noise_dataset(3, n=150, p=3)
    basis = vf.build_basis(5, 4)
    trace = vf.run_forward(ds, basis, vf.EbicConfig(eta=0.0, patience=10))
    assert trace.stop_reason == "candidates_exhausted"
    assert len(trace.steps) == 3
    # A pool left empty once the initial set is taken out.
    for pool in ([], [0]):
        empty = vf.run_forward(ds, basis, vf.EbicConfig(eta=0.0), candidate_pool=pool)
        assert empty.stop_reason == "candidates_exhausted" and empty.steps == ()


def test_run_forward_candidate_pool_restriction():
    sc = vf.SimScenario("ex1", n=300, p=50, t1=0.0, t2=0.0, seed=4, reps=1)
    train, _ = vf.generate(sc, 0)
    basis = vf.build_basis(6, 4)
    pool = [2, 4, 11]
    trace = vf.run_forward(
        train, basis, vf.EbicConfig(eta=0.0, patience=5), candidate_pool=pool
    )
    assert all(s.index in pool for s in trace.steps)


def test_pass_start_pools_and_out_of_range_indices():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((60, 6))
    x[:, 2] = 1.5  # covariate 3 is constant
    ds = vf.from_arrays(rng.standard_normal(60), rng.random(60), x)
    basis = vf.build_basis(5, 4)

    def pool(initial, candidate_pool):
        return selection._start(ds, basis, initial, candidate_pool)[2].index.tolist()

    assert pool((0,), None) == [1, 2, 4, 5, 6]
    assert pool((2, 0, 2), None) == [1, 4, 5, 6]
    assert pool((), None) == [0, 1, 2, 4, 5, 6]
    assert pool((0, 5), [6, 3, 0, 6, 5, 1]) == [1, 3, 6]
    # The screen's pool: every covariate, constant ones included.
    assert pool((0,), range(1, 7)) == [1, 2, 3, 4, 5, 6]
    with pytest.raises(vf.DataError, match="candidate index 9 is out of range"):
        pool((0,), [1, 9, -1])
    with pytest.raises(vf.DataError, match="initial covariate index 7 is out of range"):
        pool((0, 7), None)


def test_candidate_pool_owns_its_indices_blocks_and_live_mask():
    # A non-contiguous pool: gathered columns, each block carrying its real
    # covariate index, and an accepted candidate scoring -inf.
    rng = np.random.default_rng(2)
    x = rng.standard_normal((60, 6))
    ds = vf.from_arrays(rng.standard_normal(60), rng.random(60), x)
    basis = vf.build_basis(5, 4)
    _, cache, grams = selection._start(ds, basis, (0, 5), [6, 3, 0, 6, 5, 1])
    assert grams.index.tolist() == [1, 3, 6]
    block = grams.block(1)
    assert isinstance(block, vf.DesignBlock) and block.covariate_index == 3
    np.testing.assert_array_equal(block.matrix, vf.basis_matrix(basis, ds.t) * ds.x[:, 3:4])
    assert np.isfinite(sweep(grams, cache)).all()
    grams.alive[1] = False
    assert sweep(grams, cache)[1] == -np.inf


def test_run_forward_exact_fit_on_zero_response():
    ds = vf.from_arrays(np.zeros(100), np.linspace(0, 1, 100), np.random.default_rng(0).standard_normal((100, 4)))
    basis = vf.build_basis(5, 4)
    trace = vf.run_forward(ds, basis, vf.EbicConfig(eta=0.0))
    assert trace.stop_reason == "exact_fit"
    assert trace.final_set == trace.initial_set == (0,)
    assert trace.ebic_initial == -math.inf


def test_run_forward_exact_fit_after_a_step(monkeypatch):
    # A factor of three blocks is made an exact fit: the second step ends
    # the pass with criterion -inf, and rollback keeps every step.
    extend = selection.extend_cache

    def exact_at_three(cache, block):
        new = extend(cache, block)
        if len(new.index_set) == 3:
            new = dataclasses.replace(new, residual_y=np.zeros(new.n), sigma_sq=0.0)
        return new

    monkeypatch.setattr(selection, "extend_cache", exact_at_three)
    sc = vf.SimScenario("ex1", n=400, p=50, seed=3, reps=1)
    train, _ = vf.generate(sc, 0)
    trace = vf.run_forward(train, vf.build_basis(7, 4), vf.EbicConfig(eta=0.0))
    assert trace.stop_reason == "exact_fit"
    assert len(trace.steps) == 2
    last = trace.steps[-1]
    assert last.ebic == -math.inf and last.sigma_sq == 0.0
    assert last.delta_rss == trace.steps[0].sigma_sq
    assert trace.final_set == (0, *(s.index for s in trace.steps))
    assert trace.final_cache.index_set == trace.final_set


def test_run_forward_empty_initial_set():
    # ex1 has no constant term. Expected: the intercept never enters, and
    # the final set is exactly the support x1..x4, accepted in the first
    # four steps.
    sc = vf.SimScenario("ex1", n=300, p=30, t1=0.0, t2=0.0, seed=12, reps=1)
    train, _ = vf.generate(sc, 0)
    basis = vf.build_basis(5, 4)
    trace = vf.run_forward(train, basis, vf.EbicConfig(eta=0.0, patience=5), initial_set=())
    assert trace.initial_set == ()
    assert sorted(trace.final_set) == [1, 2, 3, 4]
    assert trace.final_set == tuple(s.index for s in trace.steps[:4])
    assert trace.stop_reason == "patience_exhausted"


def _rebuilt_fit(dataset, basis, index_set):
    """Fit of ``index_set`` on a factor rebuilt from freshly formed blocks."""
    bmat = vf.basis_matrix(basis, dataset.t)
    blocks = [vf.DesignBlock(j, bmat * dataset.x[:, j : j + 1]) for j in index_set]
    return vf.fit_full(vf.build_projection_cache(blocks, dataset.y), dataset.y)


@pytest.mark.parametrize("example", ["ex1", "ex2"])
def test_final_cache_is_the_factor_of_the_final_set(example):
    # The pass's own factor refits the selected model bit for bit as a
    # rebuild would: after a rollback, from an empty initial set, and on
    # the exact-fit return.
    sc = vf.SimScenario(example, n=200, p=40, t1=3.0, t2=1.0, seed=7, reps=3)
    basis = vf.build_basis(5, 4)
    config = vf.EbicConfig(eta=0.0, patience=3)
    traces = []
    for rep in range(sc.reps):
        train, _ = vf.generate(sc, rep)
        zero = vf.Dataset(np.zeros(train.n), train.t, train.x, train.column_names)
        for ds, initial in ((train, (0,)), (train, ()), (zero, (0,))):
            trace = vf.run_forward(ds, basis, config, initial_set=initial)
            traces.append(trace)
            assert trace.final_cache.index_set == trace.final_set
            fit = vf.fit_full(trace.final_cache, ds.y)
            assert np.array_equal(fit.gamma, _rebuilt_fit(ds, basis, trace.final_set).gamma)
    rolled_back = [
        t for t in traces if len(t.final_set) < len(t.initial_set) + len(t.steps)
    ]
    assert rolled_back
    assert any(t.initial_set == () and t.final_set for t in rolled_back)
    assert sum(t.stop_reason == "exact_fit" and not t.steps for t in traces) == sc.reps


def test_febic_selects_smaller_model_than_fbic_under_correlation():
    sc = vf.SimScenario("ex1", n=400, p=1000, t1=3.0, t2=2.0, seed=44, reps=1)
    train, _ = vf.generate(sc, 0)
    basis = vf.build_basis(7, 4)
    size_b = len(vf.run_forward(train, basis, vf.EbicConfig(eta=0.0, patience=5)).final_set)
    size_e = len(vf.run_forward(train, basis, vf.EbicConfig(eta_rule="auto", patience=5)).final_set)
    assert size_e <= size_b


def test_marginal_screen_single_covariate():
    ds = _noise_dataset(9, n=120, p=1)
    basis = vf.build_basis(5, 4)
    assert vf.marginal_rank_screen(ds, basis, 1) == [1]


def test_marginal_screen_duplicate_truth_ranked_adjacent():
    rng = np.random.default_rng(30)
    n = 250
    t = rng.random(n)
    strong = rng.standard_normal(n)
    x = np.column_stack([rng.standard_normal((n, 3)), strong, strong.copy(), rng.standard_normal((n, 2))])
    y = 3.0 * strong * (1.0 + t) + 0.3 * rng.standard_normal(n)
    ds = vf.from_arrays(y, t, x)
    basis = vf.build_basis(5, 4)
    ranked = vf.marginal_rank_screen(ds, basis, ds.p)
    # Columns 4 and 5 carry the same signal; they must head the ranking in
    # index order.
    assert ranked[:2] == [4, 5]


def test_marginal_screen_ranks_exact_fits_first_ties_by_index_degenerate_last(monkeypatch):
    ds = _noise_dataset(12, n=100, p=7)
    basis = vf.build_basis(5, 4)
    bmat = vf.basis_matrix(basis, ds.t)
    sigma0 = vf.build_projection_cache([vf.DesignBlock(0, bmat)], ds.y).sigma_sq
    # Variance drops of covariates 1..7: 3 and 5 fit exactly (5 overshoots
    # to a negative variance), 1 and 4 tie, 2 is degenerate.
    deltas = sigma0 * np.array([0.5, -np.inf, 1.0, 0.5, 2.0, 0.1, 0.0])
    monkeypatch.setattr(selection, "sweep", lambda *args: deltas)
    ranked = vf.marginal_rank_screen(ds, basis, ds.p)
    assert ranked == [3, 5, 1, 4, 6, 7, 2]
    # The same order as scoring each candidate's BIC one at a time.
    bic = []
    for d in deltas:
        sigma_j = sigma0 - d
        if not np.isfinite(d):
            bic.append(math.inf)
        elif sigma_j <= 0.0:
            bic.append(-math.inf)
        else:
            bic.append(vf.ebic(sigma_j, 2, ds.n, ds.p, basis.dim, 0.0))
    assert ranked == [int(i) + 1 for i in np.argsort(bic, kind="stable")]


def test_marginal_screen_keep_k_bounds():
    ds = _noise_dataset(10, n=100, p=5)
    basis = vf.build_basis(5, 4)
    with pytest.raises(ConfigError):
        vf.marginal_rank_screen(ds, basis, 0)
    with pytest.raises(ConfigError):
        vf.marginal_rank_screen(ds, basis, 6)


def test_marginal_screen_retains_benchmark_support():
    basis = vf.build_basis(7, 4)
    hits = 0
    for seed in range(50):
        sc = vf.SimScenario("ex1", n=400, p=1000, t1=0.0, t2=0.0, seed=200 + seed, reps=1)
        train, support = vf.generate(sc, 0)
        kept = vf.marginal_rank_screen(train, basis, 50)
        if set(support) <= set(kept):
            hits += 1
    assert hits >= 48, f"support survived screening in only {hits}/50 runs"


def test_run_forward_with_screen_matches_restricted_pool():
    sc = vf.SimScenario("ex1", n=300, p=120, t1=0.0, t2=0.0, seed=21, reps=1)
    train, _ = vf.generate(sc, 0)
    basis = vf.build_basis(6, 4)
    kept = vf.marginal_rank_screen(train, basis, 20)
    trace = vf.run_forward(
        train, basis, vf.EbicConfig(eta=0.0, patience=5), candidate_pool=kept
    )
    assert set(trace.final_set) - {0} <= set(kept)

