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

CRITERIA = ("argmin_sigma", "argmax_corr")


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
    (eta = 1 - log n / (3 log p), clamped to [0, 1]; ``eta`` must stay 0).
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
        if self.eta_rule == "explicit":
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


def _argbest(scores: np.ndarray) -> int | None:
    """Position of the largest score, None when no score is finite; near-ties
    go to the earliest position."""
    smax = scores.max()
    if not np.isfinite(smax):
        return None
    tol = TIE_REL_TOL * abs(smax)
    return int(np.nonzero(scores >= smax - tol)[0][0])


def _scores(deltas: np.ndarray, u: np.ndarray, criterion: str) -> np.ndarray:
    """Candidate scores under ``criterion``; degenerate candidates get -inf."""
    if criterion == "argmin_sigma":
        return deltas
    return np.where(np.isfinite(deltas), np.linalg.norm(u, axis=0), -np.inf)


def _exact_score(cache: ProjectionCache, new: ProjectionCache, criterion: str) -> float:
    """Score under ``criterion`` of the block that extends ``cache`` to ``new``.

    With Qn the new orthonormal columns, rn the new diagonal block of R and
    r the model's residual, the block with the model span projected out is
    Qn rn. So with z = Qn^T r its variance drop is z.z / n and its cross
    product with r is rn^T z.
    """
    m = cache.q.shape[1]
    z = new.q[:, m:].T @ cache.residual_y
    if criterion == "argmin_sigma":
        return float(z @ z) / cache.n
    return float(np.linalg.norm(new.r[m:, m:].T @ z))


def _confirmed_winner(
    cache: ProjectionCache, grams: CandidateGrams, scores: np.ndarray, criterion: str
) -> int | None:
    """Position of the winner among the pool's alive candidates, None when
    none is usable.

    ``scores`` come from the downdated Grams. Every alive candidate whose
    score lies within CONFIRM_REL_TOL of the best is re-scored on its factor
    extension (-inf when its block fails the rank rule there), and again for
    any that come within the slack of a lower confirmed best, so the winner
    and its ties are always decided by exact scores.
    """
    exact = np.full(scores.size, -np.inf)
    checked = ~grams.alive
    while True:
        current = np.where(checked, exact, scores)
        best = current.max()
        if best == -np.inf:
            break
        # Scores are nonnegative, and an overflowed one (+inf) is re-scored too.
        todo = np.nonzero(~checked & (current >= best * (1.0 - CONFIRM_REL_TOL)))[0]
        if not todo.size:
            break
        for pos in todo:
            try:
                new = extend_cache(cache, grams.block(pos))
            except SingularDesignError:
                continue
            exact[pos] = _exact_score(cache, new, criterion)
        checked[todo] = True
    return _argbest(exact)


def _full_rank_alone(block: DesignBlock, y: np.ndarray) -> bool:
    """Whether ``block`` passes the rank rule in a model of its own."""
    try:
        build_projection_cache([block], y)
    except SingularDesignError:
        return False
    return True


def _start(dataset: Dataset, basis: SplineBasis, initial_set, candidate_pool):
    """The start of a forward pass: (initial, cache, grams).

    ``initial`` is ``initial_set`` deduplicated in order. ``cache`` factors
    the initial set's blocks and ``grams`` is the pool against it, of the
    sorted candidate indices: ``candidate_pool`` deduplicated, or by default
    every covariate that is not constant, both without the initial set.
    Raises DataError naming the first out-of-range index in the order given,
    and SingularDesignError naming the initial covariate whose block fails
    the rank rule.
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

    bmat = basis_matrix(basis, dataset.t)
    blocks = [DesignBlock(j, bmat * dataset.x[:, j : j + 1]) for j in initial]
    try:
        cache = build_projection_cache(blocks, dataset.y)
    except SingularDesignError as exc:
        j = exc.covariate_index
        name = dataset.column_names[j]
        if not _full_rank_alone(blocks[initial.index(j)], dataset.y):
            message = f"initial covariate {name!r}: its spline block is rank deficient on its own"
        else:
            message = (
                f"initial covariate {name!r} is numerically collinear with the initial "
                "covariates before it"
            )
        raise SingularDesignError(message, j) from exc
    return initial, cache, CandidateGrams(bmat, dataset.x, pool_idx, cache)


def run_forward(
    dataset: Dataset,
    basis: SplineBasis,
    config: EbicConfig,
    initial_set=(0,),
    candidate_pool=None,
    criterion: str = "argmin_sigma",
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
    criterion : str
        "argmin_sigma" (default) or "argmax_corr".
    """
    if criterion not in CRITERIA:
        raise ConfigError(f"unknown criterion {criterion!r}; choose from {CRITERIA}")
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
    sigma_prev, ebic_prev = sigma0, ebic0
    best_val, best_len, best_cache = ebic0, 0, cache
    streak = 0
    stop = None
    while True:
        if len(steps) >= max_steps:
            stop = "max_steps"
            break
        if not grams.alive.any():
            stop = "candidates_exhausted"
            break
        # An accepted block comes off the Grams only before the sweep that
        # needs it, so a pass that stops after a step makes no update.
        if grams.m < cache.q.shape[1]:
            grams.update(cache)
        scores = _scores(sweep(grams), grams.u, criterion)
        pos = _confirmed_winner(cache, grams, scores, criterion)
        if pos is None:
            stop = "candidates_exhausted"
            break
        # Cannot fail: the confirmation made this same extension of this factor.
        cache = extend_cache(cache, grams.block(pos))
        grams.alive[pos] = False
        j = cache.index_set[-1]

        sigma = cache.sigma_sq
        delta = sigma_prev - sigma
        if sigma <= 0.0:
            steps.append(SelectionStep(j, sigma, -math.inf, delta))
            best_val, best_len, best_cache = -math.inf, len(steps), cache
            stop = "exact_fit"
            break
        e = ebic(sigma, len(initial) + len(steps) + 1, n, dataset.p, dim, eta)
        steps.append(SelectionStep(j, sigma, e, delta))
        if e < best_val:
            best_val, best_len, best_cache = e, len(steps), cache
        streak = streak + 1 if e > ebic_prev else 0
        if streak >= config.patience:
            stop = "patience_exhausted"
            break
        sigma_prev, ebic_prev = sigma, e

    final = initial + tuple(s.index for s in steps[:best_len])
    return SelectionTrace(initial, tuple(steps), final, stop, sigma0, ebic0, eta, best_cache)


def marginal_rank_screen(dataset: Dataset, basis: SplineBasis, keep_k: int) -> list[int]:
    """Rank covariates by the BIC of their single-covariate model.

    Scores {intercept, j} for every covariate j in one sweep over the
    candidates' Grams (the first sweep of ``run_forward``'s Gram route),
    ranks ascending by BIC (ties by index) and returns the best ``keep_k``
    indices. The result feeds ``run_forward``'s candidate pool.
    """
    if not 1 <= keep_k <= dataset.p:
        raise ConfigError(f"keep_k must be in [1, {dataset.p}], got {keep_k}")
    n, dim = dataset.n, basis.dim
    _, cache, grams = _start(dataset, basis, (0,), range(1, dataset.p + 1))
    deltas = sweep(grams)

    # A degenerate candidate (delta -inf, so sigma_j +inf) ranks last and an
    # exact fit first. The criterion at sigma_sq = 1 is its penalty alone.
    sigma_j = cache.sigma_sq - deltas
    bic = np.full(sigma_j.size, -np.inf)
    fits = sigma_j > 0.0
    bic[fits] = n * np.log(sigma_j[fits]) + ebic(1.0, 2, n, dataset.p, dim, 0.0)
    order = np.argsort(bic, kind="stable")
    return grams.index[order[:keep_k]].tolist()
