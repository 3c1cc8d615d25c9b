"""Synthetic benchmark generators and Monte Carlo evaluation.

Two benchmark models are built in. Both draw covariates
x_j = (z_j + t1 u1) / (1 + t1) and index t = (u2 + t2 u1) / (1 + t2) from
standard normal z_j and uniform u1, u2, with unit normal noise; t1 and t2
control the covariate/index correlations. The first model has four active
covariates, the second has eight.

Randomness is stream-split: every (seed, rep_index, purpose) triple owns an
independent generator, so repetitions are reproducible in any execution
order. Purposes: 0 = training draw, 1 = held-out (test) draw, 2 =
signal-to-noise estimation. A rep draws purpose 1 only after it has
selected, refitted and released its training set, and keeps just the
columns scoring reads (the intercept, the support and the final set), so
its peak memory is one training design matrix; the kept values are those
of the full held-out draw, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

# from_arrays is unused here; perfbench/spans.py WRAPS wraps this import.
from .data import INTERCEPT_NAME, Dataset, from_arrays
from .errors import ConfigError, DataError
from .regression import FitResult, fit_full, predict_response
from .selection import EbicConfig, SelectionTrace, marginal_rank_screen, run_forward
# basis_matrix is unused here; perfbench/spans.py WRAPS wraps this import.
from .splines import SplineBasis, basis_matrix, build_basis

_PURPOSE_TRAIN = 0
_PURPOSE_TEST = 1
_PURPOSE_SNR = 2

# Normal draws per generator call when a design matrix is filled, so that
# the raw draws exist one block of rows at a time.
DRAW_BLOCK_CELLS = 1 << 14

# Fewest Monte Carlo draws ``snr`` accepts.
SNR_MIN_SAMPLES = 10_000

# Active coefficient functions per benchmark model, keyed by covariate index.
EXAMPLE_COEFFS = {
    "ex1": {
        1: lambda t: np.full_like(t, 2.0),
        2: lambda t: 3.0 * t,
        3: lambda t: (t + 1.0) ** 2,
        4: lambda t: 4.0 * np.sin(2.0 * np.pi * t) / (2.0 - np.sin(2.0 * np.pi * t)),
    },
    "ex2": {
        1: lambda t: 3.0 * t,
        2: lambda t: (t + 1.0) ** 2,
        3: lambda t: (t - 2.0) ** 3,
        4: lambda t: 3.0 * np.sin(2.0 * np.pi * t),
        5: lambda t: np.exp(t),
        6: lambda t: np.full_like(t, 2.0),
        7: lambda t: np.full_like(t, 2.0),
        8: lambda t: 3.0 * np.sqrt(t),
    },
}


@dataclass(frozen=True)
class SimScenario:
    """Generator settings for one benchmark configuration."""

    example_id: str
    n: int = 400
    p: int = 1000
    t1: float = 0.0
    t2: float = 0.0
    seed: int = 1
    reps: int = 200
    test_fraction: float = 0.5

    def __post_init__(self) -> None:
        if self.example_id not in EXAMPLE_COEFFS:
            raise ConfigError(
                f"unknown example {self.example_id!r}; choose from {sorted(EXAMPLE_COEFFS)}"
            )
        if self.n < 1:
            raise ConfigError("n must be positive")
        if self.p < len(self.support):
            raise ConfigError(
                f"p must be at least {len(self.support)} for {self.example_id}"
            )
        if not (0.0 <= self.t1 < math.inf and 0.0 <= self.t2 < math.inf):
            raise ConfigError("t1 and t2 must be finite and nonnegative")
        if self.seed < 0:
            raise ConfigError("seed must be nonnegative")
        if self.reps < 1:
            raise ConfigError("reps must be positive")
        if not 0.0 < self.test_fraction < 1.0:
            raise ConfigError("test_fraction must lie in (0, 1)")

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(sorted(EXAMPLE_COEFFS[self.example_id]))

    @property
    def test_size(self) -> int:
        return max(1, int(round(self.n * self.test_fraction)))


@dataclass(frozen=True)
class RepMetrics:
    """Selection quality of one repetition."""

    tp: int
    fp: int
    pe: float
    model_size: int


@dataclass(frozen=True)
class AggregateMetrics:
    """Means and robust standard deviations over repetitions.

    The robust standard deviation is IQR / 1.349 with linearly interpolated
    quartiles.
    """

    mean_tp: float
    mean_fp: float
    mean_pe: float
    mean_size: float
    rsd_tp: float
    rsd_fp: float
    rsd_pe: float
    snr_estimate: float


def _stream(seed: int, rep_index: int, purpose: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, rep_index, purpose)))


@lru_cache(maxsize=4)
def _column_names(p: int) -> tuple[str, ...]:
    return (INTERCEPT_NAME, *(f"x{j}" for j in range(1, p + 1)))


def _draw(
    scenario: SimScenario, rng: np.random.Generator, size: int, columns=None
) -> Dataset:
    # Draw order is fixed (u1, u2, z, eps) so streams are reproducible; z is
    # drawn in row blocks, which continue one stream, straight into the
    # design matrix behind its intercept column. ``columns`` (increasing,
    # from 0, holding the support) keeps only those columns of the full
    # design; every draw is still made, so the kept values do not change.
    p = scenario.p
    names, keep = _column_names(p), slice(None)
    if columns is None:
        columns = range(p + 1)
    else:
        names = tuple(names[j] for j in columns)
        keep = np.asarray(columns[1:]) - 1
    u1 = rng.random(size)
    u2 = rng.random(size)
    x = np.empty((size, len(columns)))
    x[:, 0] = 1.0
    shift = scenario.t1 * u1
    rows = max(1, DRAW_BLOCK_CELLS // p)
    for start in range(0, size, rows):
        stop = min(start + rows, size)
        z = rng.standard_normal((stop - start, p))[:, keep]
        # x = (z + t1 u1) / (1 + t1), rounded as written.
        np.add(z, shift[start:stop, None], out=z)
        np.divide(z, 1.0 + scenario.t1, out=x[start:stop, 1:])
    y = rng.standard_normal(size)  # eps, to which the signal is added
    t = (u2 + scenario.t2 * u1) / (1.0 + scenario.t2)
    for j, coeff in EXAMPLE_COEFFS[scenario.example_id].items():
        y += coeff(t) * x[:, columns.index(j)]
    return Dataset(y=y, t=t, x=x, column_names=names)


def generate(scenario: SimScenario, rep_index: int) -> tuple[Dataset, tuple[int, ...]]:
    """Training dataset and the true support of one repetition.

    Deterministic in (scenario.seed, rep_index); ``held_out`` draws the
    repetition's independent test set.
    """
    if rep_index < 0:
        raise ConfigError("rep_index must be nonnegative")
    train = _draw(scenario, _stream(scenario.seed, rep_index, _PURPOSE_TRAIN), scenario.n)
    return train, scenario.support


def held_out(scenario: SimScenario, rep_index: int, columns) -> Dataset:
    """Test set of one repetition, holding only ``columns`` of its design.

    An independent draw from the training law of size n * test_fraction.
    ``columns`` must increase from 0 (the intercept), stay within p and hold
    the support, from which the response is built. Column k of the result's
    x is column ``columns[k]`` of the full (test_size, p+1) test design, bit
    for bit, whichever columns are kept.
    """
    if rep_index < 0:
        raise ConfigError("rep_index must be nonnegative")
    columns = tuple(int(j) for j in columns)
    if (
        columns != tuple(sorted(set(columns)))
        or columns[:1] != (0,)
        or columns[-1] > scenario.p
        or not set(scenario.support) <= set(columns)
    ):
        raise ConfigError(
            f"held-out columns must increase from 0 to at most p = {scenario.p} "
            f"and hold the support {scenario.support}"
        )
    rng = _stream(scenario.seed, rep_index, _PURPOSE_TEST)
    return _draw(scenario, rng, scenario.test_size, columns)


def true_correlations(t1: float, t2: float) -> tuple[float, float]:
    """Closed-form corr(x_j, x_k) and corr(x_j, t) for the generators."""
    if t1 < 0.0 or t2 < 0.0:
        raise ConfigError("t1 and t2 must be nonnegative")
    corr_xx = t1**2 / (12.0 + t1**2)
    corr_xt = t1 * t2 / math.sqrt((12.0 + t1**2) * (1.0 + t2**2))
    return corr_xx, corr_xt


def snr(scenario: SimScenario, mc_samples: int = 100_000) -> float:
    """Monte Carlo variance of the true signal over the unit noise variance.

    Only the active covariates are drawn, so the cost is independent of p.
    Their normals are drawn in row blocks, which continue one stream, and
    each block's terms are added in the same order, so the value is that of
    one full-size draw.
    """
    if mc_samples < SNR_MIN_SAMPLES:
        raise ConfigError(f"mc_samples must be at least {SNR_MIN_SAMPLES}")
    rng = _stream(scenario.seed, 0, _PURPOSE_SNR)
    coeffs = [coeff for _, coeff in sorted(EXAMPLE_COEFFS[scenario.example_id].items())]
    u1 = rng.random(mc_samples)
    u2 = rng.random(mc_samples)
    t = (u2 + scenario.t2 * u1) / (1.0 + scenario.t2)
    signal = np.zeros(mc_samples)
    rows = DRAW_BLOCK_CELLS // len(coeffs)
    for start in range(0, mc_samples, rows):
        stop = min(start + rows, mc_samples)
        z = rng.standard_normal((stop - start, len(coeffs)))
        x = (z + scenario.t1 * u1[start:stop, None]) / (1.0 + scenario.t1)
        for k, coeff in enumerate(coeffs):
            signal[start:stop] += coeff(t[start:stop]) * x[:, k]
    return float(np.var(signal))


def evaluate_rep(
    selected_set,
    support,
    fit: FitResult,
    basis: SplineBasis,
    test: Dataset,
    columns=None,
) -> RepMetrics:
    """Score a fitted selection against the truth on held-out data.

    True/false positives ignore the intercept; the prediction error is the
    mean squared prediction error on the test set. ``columns`` gives the
    full-design column of each column of ``test.x`` when the test set holds
    only some of them, as ``held_out`` draws it; None means all.
    """
    chosen = set(int(j) for j in selected_set) - {0}
    truth = set(int(j) for j in support)
    if columns is not None:
        position = {int(j): k for k, j in enumerate(columns)}
        fit = replace(fit, index_set=tuple(position[j] for j in fit.index_set))
    yhat = predict_response(fit, basis, test.t, test.x)
    pe = float(np.mean((test.y - yhat) ** 2))
    return RepMetrics(
        tp=len(chosen & truth),
        fp=len(chosen - truth),
        pe=pe,
        model_size=len(tuple(selected_set)),
    )


def robust_sd(values) -> float:
    """IQR / 1.349 with linearly interpolated quartiles."""
    arr = np.asarray(values, dtype=float)
    q75, q25 = np.percentile(arr, [75.0, 25.0])
    return float((q75 - q25) / 1.349)


def aggregate(reps, snr_estimate: float = math.nan) -> AggregateMetrics:
    """Fold per-repetition metrics into means and robust deviations."""
    reps = list(reps)
    if not reps:
        raise DataError("no repetitions to aggregate")
    tp = np.array([r.tp for r in reps], dtype=float)
    fp = np.array([r.fp for r in reps], dtype=float)
    pe = np.array([r.pe for r in reps], dtype=float)
    size = np.array([r.model_size for r in reps], dtype=float)
    return AggregateMetrics(
        mean_tp=float(tp.mean()),
        mean_fp=float(fp.mean()),
        mean_pe=float(pe.mean()),
        mean_size=float(size.mean()),
        rsd_tp=robust_sd(tp),
        rsd_fp=robust_sd(fp),
        rsd_pe=robust_sd(pe),
        snr_estimate=float(snr_estimate),
    )


def run_rep(
    scenario: SimScenario,
    rep_index: int,
    basis: SplineBasis,
    config: EbicConfig,
    screen_k: int = 0,
) -> tuple[RepMetrics, SelectionTrace]:
    """Generate one repetition, select, refit and score it.

    The training set is released before the test set is drawn, with only
    the columns that scoring reads, so one design matrix is held at a time.
    """
    train, support = generate(scenario, rep_index)
    if train.n < 2 * basis.dim * (len(support) + 1):
        raise DataError(
            f"n = {train.n} is too small for {len(support)} active covariates "
            f"at spline dimension {basis.dim}"
        )
    pool = marginal_rank_screen(train, basis, screen_k) if screen_k > 0 else None
    trace = run_forward(train, basis, config, initial_set=(0,), candidate_pool=pool)
    fit = fit_full(trace.final_cache, train.y)
    del train
    columns = tuple(sorted({0, *support, *trace.final_set}))
    test = held_out(scenario, rep_index, columns)
    metrics = evaluate_rep(trace.final_set, support, fit, basis, test, columns)
    return metrics, trace


def _rep_task(args):
    """Picklable worker: one repetition end to end (used by the CLI pool)."""
    scenario, rep_index, dim, order, config, screen_k = args
    basis = build_basis(dim, order)
    metrics, trace = run_rep(scenario, rep_index, basis, config, screen_k)
    return rep_index, metrics, trace.final_set, trace.stop_reason
