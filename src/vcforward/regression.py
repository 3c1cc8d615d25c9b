"""Least-squares machinery over blockwise spline designs.

The projection cache factors the current model's design as W = QR, growing
Q and R by one block at a time. Full fits solve R gamma = Q^T y on that
factor, and every candidate's variance drop comes from one batched sweep
that Cholesky-factors the candidate's Gram with the model span projected
out, so scoring costs one small (dim x dim) factorisation per candidate
instead of a full refit. One rank rule decides usability on both routes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import (
    DegenerateCandidateError,
    OverparameterizedError,
    SingularDesignError,
)
from .splines import DesignBlock, SplineBasis, basis_matrix

# Relative tolerance on squared factorization pivots below which a design is
# treated as rank deficient.
RANK_REL_TOL = 1e-10


def _full_rank(pivot_sq, col_sq_max):
    """The rank rule: a block is usable while every squared pivot of its
    factor, after the model span is projected out, exceeds ``RANK_REL_TOL``
    times its largest squared raw column norm."""
    return pivot_sq > RANK_REL_TOL * col_sq_max


@dataclass(frozen=True)
class FitResult:
    """Least-squares fit of the covariates in ``index_set``.

    ``gamma`` stacks one spline coefficient vector per covariate, in
    ``index_set`` order. ``sigma_sq`` is the residual sum of squares over n.
    ``rank_ok`` is True on every fit that ``fit_full`` returns, since a
    rank-deficient design raises instead; the field is kept because the
    benchmark's traced runs (``perfbench/spans.py``) read it.
    """

    index_set: tuple[int, ...]
    gamma: np.ndarray
    sigma_sq: float
    rank_ok: bool


@dataclass(frozen=True)
class ProjectionCache:
    """Factor W = QR of the current model's design.

    ``q`` has orthonormal columns spanning the design and ``r`` is upper
    triangular, so that the stacked blocks equal ``q @ r``. ``residual_y``
    is y minus its projection onto that span and ``sigma_sq`` its squared
    norm over n. Immutable: extension returns a new cache.
    """

    index_set: tuple[int, ...]
    q: np.ndarray  # n x m, orthonormal columns
    r: np.ndarray  # m x m, upper triangular
    residual_y: np.ndarray
    sigma_sq: float

    @property
    def n(self) -> int:
        return self.residual_y.shape[0]


def _check_blocks(blocks: list[DesignBlock], y: np.ndarray) -> None:
    n = y.shape[0]
    for b in blocks:
        if b.matrix.shape[0] != n:
            raise ValueError(
                f"block for covariate {b.covariate_index} has {b.matrix.shape[0]} "
                f"rows, expected {n}"
            )


def fit_full(blocks: list[DesignBlock], y: np.ndarray) -> FitResult:
    """Least-squares fit of y on the stacked blocks.

    Builds the projection cache and solves R gamma = Q^T y. Returns the
    coefficients and the variance estimate sigma_sq = RSS / n. Raises
    OverparameterizedError when the stacked design has more columns than
    rows and SingularDesignError when it is rank deficient.
    """
    y = np.asarray(y, dtype=float)
    cache = build_projection_cache(blocks, y)
    gamma = scipy.linalg.solve_triangular(cache.r, cache.q.T @ y)
    return FitResult(cache.index_set, gamma, cache.sigma_sq, True)


def _append_orthonormal(
    q: np.ndarray, r: np.ndarray, block: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormalize ``block`` against ``q`` and grow the factor W = QR.

    Projects twice (classical Gram-Schmidt with reorthogonalization) before
    the QR step to keep the accumulated basis orthonormal to round-off; both
    projections' coefficients enter the new columns of R. Raises
    SingularDesignError when the block fails the rank rule.
    """
    c = q.T @ block
    v = block - q @ c
    c2 = q.T @ v
    v -= q @ c2
    qn, rn = np.linalg.qr(v)
    pivot_sq = np.diag(rn) ** 2
    if not _full_rank(pivot_sq.min(), np.einsum("ij,ij->j", block, block).max()):
        raise SingularDesignError(
            "block is numerically collinear with the current design"
        )
    m, d = r.shape[0], rn.shape[1]
    r_new = np.zeros((m + d, m + d))
    r_new[:m, :m] = r
    r_new[:m, m:] = c + c2
    r_new[m:, m:] = rn
    return np.hstack([q, qn]), r_new


def build_projection_cache(blocks: list[DesignBlock], y: np.ndarray) -> ProjectionCache:
    """Factor the span of the given blocks and residualize y against it."""
    y = np.asarray(y, dtype=float)
    n = y.shape[0]
    _check_blocks(blocks, y)
    m_total = sum(b.matrix.shape[1] for b in blocks)
    if m_total > n:
        raise OverparameterizedError(f"{m_total} coefficients for {n} observations")
    q, r = np.zeros((n, 0)), np.zeros((0, 0))
    for b in blocks:
        q, r = _append_orthonormal(q, r, b.matrix)
    resid = y - q @ (q.T @ y)
    resid -= q @ (q.T @ resid)
    return ProjectionCache(
        tuple(b.covariate_index for b in blocks), q, r, resid, float(resid @ resid) / n
    )


def extend_cache(cache: ProjectionCache, block: DesignBlock) -> ProjectionCache:
    """Return a new cache with ``block`` absorbed into the model span."""
    q, r = _append_orthonormal(cache.q, cache.r, block.matrix)
    qn = q[:, cache.q.shape[1] :]
    resid = cache.residual_y - qn @ (qn.T @ cache.residual_y)
    return ProjectionCache(
        cache.index_set + (block.covariate_index,),
        q,
        r,
        resid,
        float(resid @ resid) / cache.n,
    )


def residualize(cache: ProjectionCache, w_stack: np.ndarray) -> np.ndarray:
    """Project the stacked (n, k, dim) candidate blocks off the model span."""
    n, k, dim = w_stack.shape
    wflat = w_stack.reshape(n, k * dim)
    return (wflat - cache.q @ (cache.q.T @ wflat)).reshape(n, k, dim)


def col_sq_max(w_stack: np.ndarray) -> np.ndarray:
    """Largest squared raw column norm of each block in an (n, k, dim) stack."""
    return np.einsum("nkl,nkl->kl", w_stack, w_stack).max(axis=1)


def sweep(cache: ProjectionCache, wt: np.ndarray, raw_col_sq_max: np.ndarray):
    """Variance drop of every candidate in a residualized (n, k, dim) stack.

    Each candidate's residualized Gram is Cholesky-factored, vectorized over
    candidates with a loop over its ``dim`` columns. ``raw_col_sq_max``
    (see ``col_sq_max``) feeds the rank rule: a candidate with a failing
    pivot is degenerate and gets delta = -inf and zero coefficients.

    Returns (deltas, gammas, u): delta = sigma_sq(S) - sigma_sq(S + candidate),
    gamma the candidate's coefficients in the extended model, and u the cross
    products of the residualized block with the residual response. Never
    raises.
    """
    n, k, dim = wt.shape
    u = (wt.reshape(n, k * dim).T @ cache.residual_y).reshape(k, dim)
    gram = np.matmul(wt.transpose(1, 2, 0), wt.transpose(1, 0, 2))
    chol = np.zeros((k, dim, dim))
    z = np.zeros((k, dim))
    usable = np.ones(k, dtype=bool)
    for j in range(dim):
        row = chol[:, j, :j]
        pivot_sq = gram[:, j, j] - np.einsum("kl,kl->k", row, row)
        usable &= _full_rank(pivot_sq, raw_col_sq_max)
        # A degenerate candidate continues on an infinite pivot, which zeroes
        # the rest of its factor instead of dividing by a vanishing one.
        pivot = np.sqrt(np.where(usable, pivot_sq, np.inf))
        chol[:, j, j] = pivot
        below = gram[:, j + 1 :, j] - np.einsum("kil,kl->ki", chol[:, j + 1 :, :j], row)
        chol[:, j + 1 :, j] = below / pivot[:, None]
        z[:, j] = (u[:, j] - np.einsum("kl,kl->k", row, z[:, :j])) / pivot
    gammas = np.zeros((k, dim))
    for j in range(dim - 1, -1, -1):
        above = np.einsum("kl,kl->k", chol[:, j + 1 :, j], gammas[:, j + 1 :])
        gammas[:, j] = (z[:, j] - above) / chol[:, j, j]
    gammas[~usable] = 0.0
    deltas = np.where(usable, np.einsum("kl,kl->k", z, z) / n, -np.inf)
    return deltas, gammas, u


def rss_reduction(cache: ProjectionCache, block: DesignBlock) -> tuple[float, np.ndarray]:
    """Variance drop from adding ``block`` to the cached model.

    Returns (delta, gamma) with delta = sigma_sq(S) - sigma_sq(S + block)
    >= 0 and gamma the fitted spline coefficients of the candidate in the
    extended model. Raises DegenerateCandidateError when the block fails
    the rank rule.
    """
    w = block.matrix[:, None, :]
    deltas, gammas, _ = sweep(cache, residualize(cache, w), col_sq_max(w))
    if not np.isfinite(deltas[0]):
        raise DegenerateCandidateError(
            f"candidate {block.covariate_index} is collinear with the model"
        )
    return float(deltas[0]), gammas[0]


def predict_response(
    fit: FitResult, basis: SplineBasis, t_values: np.ndarray, x: np.ndarray
) -> np.ndarray:
    """Vectorized prediction; ``x`` is the full n x (p+1) covariate matrix."""
    bmat = basis_matrix(basis, t_values)
    gamma = fit.gamma.reshape(len(fit.index_set), basis.dim)
    yhat = np.zeros(bmat.shape[0])
    for k, j in enumerate(fit.index_set):
        yhat += (bmat @ gamma[k]) * x[:, j]
    return yhat


def coefficient_curve(
    fit: FitResult, basis: SplineBasis, j: int, grid: np.ndarray
) -> np.ndarray:
    """Fitted coefficient function of covariate ``j`` on the grid."""
    if j not in fit.index_set:
        raise KeyError(f"covariate {j} is not in the fitted set {fit.index_set}")
    k = fit.index_set.index(j)
    gamma_j = fit.gamma[k * basis.dim : (k + 1) * basis.dim]
    return basis_matrix(basis, grid) @ gamma_j
