"""Synthetic benchmark generators and Monte Carlo evaluation.

Two benchmark models are built in. Both draw covariates
x_j = (z_j + t1 u1) / (1 + t1) and index t = (u2 + t2 u1) / (1 + t2) from
standard normal z_j and uniform u1, u2, with unit normal noise; t1 and t2
control the covariate/index correlations. The first model has four active
covariates, the second has eight.

Randomness is stream-split: every (seed, rep_index, purpose) triple owns an
independent generator, so repetitions are reproducible in any execution
order. Purposes: 0 = training draw, 1 = test draw, 2 = signal-to-noise
estimation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset, from_arrays
from .errors import ConfigError, DataError
from .regression import FitResult, fit_full, predict_response
from .selection import EbicConfig, SelectionTrace, marginal_rank_screen, run_forward
from .splines import DesignBlock, SplineBasis, basis_matrix, build_basis

_PURPOSE_TRAIN = 0
_PURPOSE_TEST = 1
_PURPOSE_SNR = 2

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
        if self.t1 < 0.0 or self.t2 < 0.0:
            raise ConfigError("t1 and t2 must be nonnegative")
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


def _draw(scenario: SimScenario, rng: np.random.Generator, size: int) -> Dataset:
    # Draw order is fixed (u1, u2, z, eps) so streams are reproducible.
    u1 = rng.random(size)
    u2 = rng.random(size)
    z = rng.standard_normal((size, scenario.p))
    eps = rng.standard_normal(size)
    # x = (z + t1 u1) / (1 + t1), rounded as written but computed in z.
    x = np.add(z, scenario.t1 * u1[:, None], out=z)
    np.divide(x, 1.0 + scenario.t1, out=x)
    t = (u2 + scenario.t2 * u1) / (1.0 + scenario.t2)
    y = eps.copy()
    for j, coeff in EXAMPLE_COEFFS[scenario.example_id].items():
        y += coeff(t) * x[:, j - 1]
    return from_arrays(y, t, x)


def generate(scenario: SimScenario, rep_index: int):
    """Training and test datasets plus the true support for one repetition.

    Deterministic in (scenario.seed, rep_index); the test set is an
    independent draw from the same law of size n * test_fraction.
    """
    if rep_index < 0:
        raise ConfigError("rep_index must be nonnegative")
    train = _draw(scenario, _stream(scenario.seed, rep_index, _PURPOSE_TRAIN), scenario.n)
    test = _draw(scenario, _stream(scenario.seed, rep_index, _PURPOSE_TEST), scenario.test_size)
    return train, test, scenario.support


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
    """
    if mc_samples < 10_000:
        raise ConfigError("mc_samples must be at least 10000")
    rng = _stream(scenario.seed, 0, _PURPOSE_SNR)
    coeffs = EXAMPLE_COEFFS[scenario.example_id]
    u1 = rng.random(mc_samples)
    u2 = rng.random(mc_samples)
    z = rng.standard_normal((mc_samples, len(coeffs)))
    x = (z + scenario.t1 * u1[:, None]) / (1.0 + scenario.t1)
    t = (u2 + scenario.t2 * u1) / (1.0 + scenario.t2)
    signal = np.zeros(mc_samples)
    for k, (j, coeff) in enumerate(sorted(coeffs.items())):
        signal += coeff(t) * x[:, k]
    return float(np.var(signal))


def evaluate_rep(
    selected_set,
    support,
    fit: FitResult,
    basis: SplineBasis,
    test: Dataset,
) -> RepMetrics:
    """Score a fitted selection against the truth on held-out data.

    True/false positives ignore the intercept; the prediction error is the
    mean squared prediction error on the test set.
    """
    chosen = set(int(j) for j in selected_set) - {0}
    truth = set(int(j) for j in support)
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
    criterion: str = "argmin_sigma",
    screen_k: int = 0,
) -> tuple[RepMetrics, SelectionTrace]:
    """Generate one repetition, select, refit and score it."""
    train, test, support = generate(scenario, rep_index)
    if train.n < 2 * basis.dim * (len(support) + 1):
        raise DataError(
            f"n = {train.n} is too small for {len(support)} active covariates "
            f"at spline dimension {basis.dim}"
        )
    pool = marginal_rank_screen(train, basis, screen_k) if screen_k > 0 else None
    trace = run_forward(
        train,
        basis,
        config,
        initial_set=(0,),
        candidate_pool=pool,
        criterion=criterion,
    )
    bmat = basis_matrix(basis, train.t)
    blocks = [
        DesignBlock(j, bmat * train.x[:, j : j + 1]) for j in trace.final_set
    ]
    fit = fit_full(blocks, train.y)
    metrics = evaluate_rep(trace.final_set, support, fit, basis, test)
    return metrics, trace


def _rep_task(args):
    """Picklable worker: one repetition end to end (used by the CLI pool)."""
    scenario, rep_index, dim, order, config, criterion, screen_k = args
    basis = build_basis(dim, order)
    metrics, trace = run_rep(scenario, rep_index, basis, config, criterion, screen_k)
    return rep_index, metrics, trace.final_set, trace.stop_reason
