"""Greedy forward selection with an EBIC/BIC stopping rule.

``run_forward`` is the one route from a candidate pool to an accepted
covariate. Each step scores every remaining candidate by the drop in the
variance estimate when its spline block is added to the current model (one
sweep over the candidates' downdated Grams, with the best scores confirmed
on their factor extensions), accepts the best one, and tracks the
information criterion. Selection keeps going until the criterion has
increased for ``patience`` consecutive accepted steps (small fluctuations
are tolerated), then rolls back to the prefix with the smallest criterion
value seen.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .errors import ConfigError, DataError, NumericalError, SingularDesignError
from .regression import (
    CandidateGrams,
    ProjectionCache,
    build_projection_cache,
    extend_cache,
    sweep,
)
from .splines import DesignBlock, SplineBasis, basis_matrix

# Relative slack under which candidate scores count as tied; ties resolve to
# the smallest covariate index.
TIE_REL_TOL = 1e-12

# Relative slack around the best downdated-Gram score inside which candidates
# are re-scored on their factor extensions before a winner is taken.
CONFIRM_REL_TOL = 1e-6


def auto_eta(n: int, p: int) -> float:
    """Data-driven EBIC weight 1 - log(n) / (3 log(p)); may be negative."""
    if p <= 1:
        raise ConfigError("automatic eta needs more than one candidate covariate")
    return 1.0 - math.log(n) / (3.0 * math.log(p))


def ebic(sigma_sq: float, set_size: int, n: int, p: int, dim: int, eta: float) -> float:
    """Information criterion n log(sigma_sq) + set_size * dim * (log n + 2 eta log p).

    ``set_size`` counts every covariate in the model, intercept included;
    ``dim`` is the spline dimension, so each covariate costs ``dim``
    coefficients. With eta = 0 this is the BIC.
    """
    if sigma_sq <= 0.0:
        raise NumericalError("variance estimate is zero; the fit is exact")
    if set_size < 0:
        raise ValueError("set_size must be nonnegative")
    penalty = set_size * dim * (math.log(n) + 2.0 * eta * math.log(p))
    return n * math.log(sigma_sq) + penalty


@dataclass(frozen=True)
class EbicConfig:
    """Stopping-rule settings for the forward pass.

    ``eta_rule`` is "explicit" (use ``eta`` as given; 0 = BIC) or "auto"
    (eta = 1 - log n / (3 log p), clamped to [0, 1], and 0 when p = 1;
    ``eta`` must stay 0).
    ``patience`` is the number of consecutive criterion increases tolerated.
    ``max_steps`` caps accepted covariates; None uses n // (2 dim) minus the
    initial set size, keeping two observations per coefficient.
    """

    eta: float = 0.0
    eta_rule: str = "explicit"
    patience: int = 5
    max_steps: int | None = None

    def __post_init__(self) -> None:
        if self.eta_rule not in ("explicit", "auto"):
            raise ConfigError(f"eta_rule must be 'explicit' or 'auto', got {self.eta_rule!r}")
        if not math.isfinite(self.eta):
            raise ConfigError(f"eta must be finite, got {self.eta}")
        if self.eta_rule == "explicit" and self.eta < 0.0:
            raise ConfigError("eta must be nonnegative")
        if self.eta_rule == "auto" and self.eta != 0.0:
            raise ConfigError(f"eta {self.eta} conflicts with eta_rule 'auto'")
        if self.patience < 1:
            raise ConfigError("patience must be at least 1")
        if self.max_steps is not None and self.max_steps < 0:
            raise ConfigError("max_steps must be nonnegative")

    def resolve_eta(self, n: int, p: int) -> float:
        # At p = 1 the penalty's 2 eta log p is 0; "auto" keeps ``eta`` at 0.
        if self.eta_rule == "explicit" or p == 1:
            return self.eta
        return min(1.0, max(0.0, auto_eta(n, p)))


@dataclass(frozen=True)
class SelectionStep:
    """One accepted candidate: index, model state after acceptance."""

    index: int
    sigma_sq: float
    ebic: float
    delta_rss: float


@dataclass(frozen=True)
class SelectionTrace:
    """Ordered record of a forward pass.

    ``final_set`` is the initial set plus the prefix of accepted indices up
    to the smallest criterion value (rollback). ``stop_reason`` is one of
    "patience_exhausted", "max_steps", "candidates_exhausted", "exact_fit".
    ``final_cache`` is the pass's own W = QR factor of ``final_set``, so
    ``fit_full(final_cache, y)`` refits the selected model with one
    triangular solve.
    """

    initial_set: tuple[int, ...]
    steps: tuple[SelectionStep, ...]
    final_set: tuple[int, ...]
    stop_reason: str
    sigma_sq_initial: float
    ebic_initial: float
    eta: float
    final_cache: ProjectionCache = field(compare=False, repr=False)

    @property
    def sigma_sq_path(self) -> list[float]:
        return [self.sigma_sq_initial] + [s.sigma_sq for s in self.steps]

    @property
    def ebic_path(self) -> list[float]:
        return [self.ebic_initial] + [s.ebic for s in self.steps]


def _confirmed_winner(
    cache: ProjectionCache, grams: CandidateGrams, scores: np.ndarray
) -> tuple[int, ProjectionCache] | None:
    """The winner among the pool's alive candidates, as its position and its
    factor extension of ``cache``; None when none is usable.

    ``scores`` are the step's ``sweep`` of the downdated Grams, which this
    overwrites. Every alive candidate whose score lies within
    CONFIRM_REL_TOL of the best is re-scored on its factor extension
    (skipped when its block fails the rank rule there), and again for any
    that come within the slack of a lower confirmed best; a re-scored
    candidate's Gram score becomes -inf. With Qn the extension's new
    orthonormal columns and r the model's residual, the exact score is the
    variance drop z.z / n of z = Qn^T r. The winner is the best re-scored
    candidate, near-ties within TIE_REL_TOL going to the earliest position.
    A candidate whose Gram score is further below its exact score than the
    slack is never re-scored, which can happen near the rank rule's edge,
    where a downdated Gram squares the block's condition number. Only the
    short-list is held: its exact scores, and an extension only while it
    can still win, that is while no earlier position scores at least as
    well, so exact ties hold one.
    """
    scores[~grams.alive] = -np.inf
    exact: dict[int, float] = {}
    kept: dict[int, ProjectionCache] = {}
    while True:
        best = max(scores.max(), max(exact.values(), default=-np.inf))
        if best == -np.inf:
            break
        # Scores are nonnegative, and an overflowed one (+inf) is re-scored too.
        todo = np.nonzero(scores >= best * (1.0 - CONFIRM_REL_TOL))[0]
        if not todo.size:
            break
        for pos in todo.tolist():
            try:
                new = extend_cache(cache, grams.block(pos))
            except SingularDesignError:
                continue
            z = new.q[:, cache.q.shape[1] :].T @ cache.residual_y
            score = exact[pos] = float(z @ z) / cache.n
            if all(q > pos or exact[q] < score for q in kept):
                kept = {q: e for q, e in kept.items() if q < pos or exact[q] > score}
                kept[pos] = new
        scores[todo] = -np.inf
    best = max(exact.values(), default=-np.inf)
    if not math.isfinite(best):
        return None
    pos = min(q for q, e in exact.items() if e >= best - TIE_REL_TOL * abs(best))
    return pos, kept[pos]


def _start(dataset: Dataset, basis: SplineBasis, initial_set, candidate_pool):
    """The start of a forward pass: (initial, cache, grams).

    ``initial`` is ``initial_set`` deduplicated in order. ``cache`` factors
    the initial set's blocks and ``grams`` is the pool against it, of the
    sorted candidate indices: ``candidate_pool`` deduplicated, or by default
    every covariate that is not constant, both without the initial set.
    Raises DataError naming the first out-of-range index in the order given,
    or when the index variable takes fewer distinct values than the spline
    dimension, and SingularDesignError naming the initial covariate whose
    block fails the rank rule.
    """
    initial = tuple(dict.fromkeys(int(j) for j in initial_set))
    for j in initial:
        if not 0 <= j <= dataset.p:
            raise DataError(f"initial covariate index {j} is out of range")
    if candidate_pool is None:
        pool_idx = np.setdiff1d(np.arange(dataset.p + 1), initial + dataset.constant_columns)
    else:
        given = np.fromiter(candidate_pool, dtype=int)
        bad = given[(given < 0) | (given > dataset.p)]
        if bad.size:
            raise DataError(f"candidate index {bad[0]} is out of range")
        pool_idx = np.setdiff1d(given, initial)
    # With k distinct index values every block diag(x_j) B has rank at most k.
    distinct = np.unique(dataset.t).size
    if distinct < basis.dim:
        raise DataError(
            f"the index variable takes {distinct} distinct values, fewer than the spline "
            f"dimension {basis.dim}, so no covariate's spline block has full rank"
        )

    bmat = basis_matrix(basis, dataset.t)
    blocks = [DesignBlock(j, bmat * dataset.x[:, j : j + 1]) for j in initial]
    try:
        cache = build_projection_cache(blocks, dataset.y)
    except SingularDesignError as exc:
        j = exc.covariate_index
        name = dataset.column_names[j]
        try:
            build_projection_cache([blocks[initial.index(j)]], dataset.y)
        except SingularDesignError:
            message = f"initial covariate {name!r}: its spline block is rank deficient on its own"
        else:
            message = (
                f"initial covariate {name!r} is numerically collinear with the initial "
                "covariates before it"
            )
        raise SingularDesignError(message, j) from exc
    return initial, cache, CandidateGrams(bmat, dataset.x, pool_idx)


def run_forward(
    dataset: Dataset,
    basis: SplineBasis,
    config: EbicConfig,
    initial_set=(0,),
    candidate_pool=None,
) -> SelectionTrace:
    """Run the forward pass on a dataset and return its trace.

    Parameters
    ----------
    dataset : Dataset
        Response, index variable and covariates (intercept in column 0).
    basis : SplineBasis
        Basis used for every coefficient function.
    config : EbicConfig
        Stopping-rule settings.
    initial_set : iterable of int
        Covariate indices fixed in the model from the start; defaults to
        the intercept. May be empty.
    candidate_pool : iterable of int, optional
        Restrict candidates to these covariate indices (screening). By
        default every covariate outside the initial set is eligible,
        except constant columns flagged on the dataset.
    """
    n, dim = dataset.n, basis.dim
    eta = config.resolve_eta(n, dataset.p)
    initial, cache, grams = _start(dataset, basis, initial_set, candidate_pool)

    cap = n // dim - len(initial)
    max_steps = config.max_steps
    if max_steps is None:
        max_steps = n // (2 * dim) - len(initial)
    max_steps = max(0, min(max_steps, cap))

    sigma0 = cache.sigma_sq
    if sigma0 <= 0.0:
        return SelectionTrace(initial, (), initial, "exact_fit", sigma0, -math.inf, eta, cache)
    ebic0 = ebic(sigma0, len(initial), n, dataset.p, dim, eta)

    steps: list[SelectionStep] = []
    best_val, best_len, best_cache = ebic0, 0, cache
    streak = 0
    while len(steps) < max_steps and grams.alive.any() and streak < config.patience:
        winner = _confirmed_winner(cache, grams, sweep(grams, cache))
        if winner is None:
            break
        pos, cache = winner
        grams.alive[pos] = False
        # The model before this step is read off its record: no old factor is kept.
        sigma_last, ebic_last = (steps[-1].sigma_sq, steps[-1].ebic) if steps else (sigma0, ebic0)
        sigma = cache.sigma_sq
        e = ebic(sigma, len(cache.index_set), n, dataset.p, dim, eta) if sigma > 0.0 else -math.inf
        streak = streak + 1 if e > ebic_last else 0
        steps.append(SelectionStep(cache.index_set[-1], sigma, e, sigma_last - sigma))
        if e < best_val:
            best_val, best_len, best_cache = e, len(steps), cache
        if e == -math.inf:
            break

    if steps and steps[-1].ebic == -math.inf:
        stop = "exact_fit"
    elif streak >= config.patience:
        stop = "patience_exhausted"
    elif len(steps) >= max_steps:
        stop = "max_steps"
    else:
        stop = "candidates_exhausted"
    final = initial + tuple(s.index for s in steps[:best_len])
    return SelectionTrace(initial, tuple(steps), final, stop, sigma0, ebic0, eta, best_cache)


def marginal_rank_screen(dataset: Dataset, basis: SplineBasis, keep_k: int) -> list[int]:
    """Rank covariates by the variance estimate of their single-covariate model.

    Scores {intercept, j} for every covariate j in one sweep over the
    candidates' Grams (the first sweep of ``run_forward``'s Gram route),
    ranks ascending by variance (ties by index) and returns the best
    ``keep_k`` indices. Every such model has the same size, so this is also
    the order of their BIC. The result feeds ``run_forward``'s candidate
    pool; it never holds the intercept.
    """
    if not 1 <= keep_k <= dataset.p:
        raise ConfigError(f"keep_k must be in [1, {dataset.p}], got {keep_k}")
    _, cache, grams = _start(dataset, basis, (0,), range(1, dataset.p + 1))
    # A degenerate candidate (delta -inf, so sigma_j +inf) ranks last and an
    # exact fit first.
    sigma_j = cache.sigma_sq - sweep(grams, cache)
    order = np.argsort(np.where(sigma_j > 0.0, sigma_j, -np.inf), kind="stable")
    return grams.index[order[:keep_k]].tolist()
