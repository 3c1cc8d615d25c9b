"""Least-squares machinery over blockwise spline designs.

The projection cache factors the current model's design as W = QR, growing
Q and R by one block at a time. Full fits solve R gamma = Q^T y on that
factor, and every candidate's variance drop comes from one batched sweep
that Cholesky-factors the candidate's Gram with the model span projected
out, so scoring costs one small (dim x dim) factorisation per candidate
instead of a full refit. Those Grams come from explicitly residualized
blocks (``residualize``) or, for a whole candidate pool, from matrix
products over the covariates downdated per accepted block
(``CandidateGrams``). One rank rule decides usability on every route.
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
    ``rank_ok`` is True on every fit, since a rank-deficient design cannot
    be factored; the field is kept because the benchmark's traced runs
    (``perfbench/spans.py``) read it.
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


def fit_full(cache: ProjectionCache, y: np.ndarray) -> FitResult:
    """Least-squares fit of y on the design that ``cache`` factors.

    One triangular solve R gamma = Q^T y on the cache's W = QR factor, such
    as ``SelectionTrace.final_cache`` or ``build_projection_cache``'s; the
    variance estimate sigma_sq = RSS / n is the cache's. Never raises.
    """
    gamma = scipy.linalg.solve_triangular(cache.r, cache.q.T @ np.asarray(y, dtype=float))
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
    """Factor the span of the given blocks and residualize y against it.

    Raises OverparameterizedError when the stacked design has more columns
    than rows and SingularDesignError, naming the covariate index of the
    first block collinear with those before it, when it is rank deficient.
    """
    y = np.asarray(y, dtype=float)
    n = y.shape[0]
    _check_blocks(blocks, y)
    m_total = sum(b.matrix.shape[1] for b in blocks)
    if m_total > n:
        raise OverparameterizedError(f"{m_total} coefficients for {n} observations")
    q, r = np.zeros((n, 0)), np.zeros((0, 0))
    for b in blocks:
        try:
            q, r = _append_orthonormal(q, r, b.matrix)
        except SingularDesignError as exc:
            raise SingularDesignError(
                f"covariate index {b.covariate_index}: {exc}", b.covariate_index
            ) from None
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


def residualize(cache: ProjectionCache, w_stack: np.ndarray):
    """Kernel inputs of stacked (n, k, dim) candidate blocks, projected explicitly.

    Projects the model span off the blocks and returns (gram, u, col_sq_max)
    in the layout ``sweep`` takes: each block's residualized Gram as
    gram[:, :, i], its cross products with the residual response as
    u[:, i], and its largest squared raw column norm (the rank rule's scale).
    """
    n, k, dim = w_stack.shape
    wflat = w_stack.reshape(n, k * dim)
    wt = (wflat - cache.q @ (cache.q.T @ wflat)).reshape(n, k, dim)
    gram = np.einsum("nkl,nkm->lmk", wt, wt)
    u = (wt.reshape(n, k * dim).T @ cache.residual_y).reshape(k, dim).T
    return gram, u, np.einsum("nkl,nkl->kl", w_stack, w_stack).max(axis=1)


# Covariate columns per GEMM when the raw Grams are formed, so that the
# squared covariates exist one block at a time.
GRAM_BLOCK_COLUMNS = 256


def _row_products(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise Kronecker products: column (i, l) of the result is a_i * b_l."""
    return (a[:, :, None] * b[:, None, :]).reshape(a.shape[0], -1)


class CandidateGrams:
    """Kernel inputs of the blocks W_j = diag(x_j) B, from products over x.

    With B the (n, dim) basis matrix and x the (n, k) candidate covariates,
    the raw Grams are GEMMs (B_l B_m)^T x^2 over the lower triangle l >= m,
    one block of GRAM_BLOCK_COLUMNS columns of x at a time, and their
    diagonals give the rank rule's scale. The model's orthonormal columns Q
    come off as G_j - C_j^T C_j with C = (Q_a B_l)^T x, and the cross
    products with the residual r, which is orthogonal to Q, are (B r)^T x;
    after each accepted block both come from one more GEMM over x. So
    memory stays O(n k + k dim^2): no (n, k, dim) stack and no copy of x is
    formed, and ``x`` may be a view. ``gram`` and ``u`` are laid out as
    ``sweep`` takes them; only the lower triangle and diagonal of ``gram``
    are kept, which is all ``sweep`` reads, and the upper triangle is zero.

    A downdated Gram squares each block's condition number, so a winner is
    confirmed on explicitly residualized blocks (``blocks``, ``residualize``)
    before it is accepted.
    """

    def __init__(self, bmat: np.ndarray, x: np.ndarray, q: np.ndarray, r: np.ndarray):
        """Inputs for the model with orthonormal columns ``q`` and residual ``r``."""
        self.bmat = bmat
        self.x = x
        k, dim = x.shape[1], bmat.shape[1]
        rows, cols = np.tril_indices(dim)
        products = (bmat[:, rows] * bmat[:, cols]).T
        self.gram = np.zeros((dim, dim, k))
        for start in range(0, k, GRAM_BLOCK_COLUMNS):
            block = x[:, start : start + GRAM_BLOCK_COLUMNS]
            self.gram[rows, cols, start : start + block.shape[1]] = products @ (block * block)
        self.col_sq_max = np.diagonal(self.gram).max(axis=1)
        self.update(q, r)

    def update(self, q: np.ndarray, r: np.ndarray) -> None:
        """Project orthonormal columns ``q``, new to the model, off every Gram
        and take the cross products with the model's new residual ``r``."""
        k, m, dim = self.x.shape[1], q.shape[1], self.bmat.shape[1]
        left = np.hstack([_row_products(q, self.bmat), self.bmat * r[:, None]])
        prod = left.T @ self.x
        c = prod[: m * dim].reshape(m, dim, k)
        for l in range(dim):
            self.gram[l, : l + 1] -= np.einsum("ak,amk->mk", c[:, l], c[:, : l + 1])
        # A copy, so that the whole product is freed on return.
        self.u = prod[m * dim :].copy()

    def blocks(self, positions) -> np.ndarray:
        """The (n, len(positions), dim) stack of the blocks at ``positions``."""
        return self.bmat[:, None, :] * self.x[:, positions, None]


def sweep(gram: np.ndarray, u: np.ndarray, raw_col_sq_max: np.ndarray, n: int):
    """Variance drop of every candidate from its residualized Gram.

    Candidate i's Gram with the model span projected out is gram[:, :, i]
    and its cross products with the residual response are u[:, i]; both
    routes build them, ``residualize`` from explicit blocks (full Grams)
    and ``CandidateGrams`` from products over x (lower triangles). Only the
    lower triangle and diagonal, gram[l, m] with l >= m, are read. Each
    Gram is Cholesky-factored, vectorized over candidates with a loop over
    its ``dim`` columns.
    ``raw_col_sq_max`` feeds the rank rule: a candidate with a failing pivot
    is degenerate and gets delta = -inf.

    Returns (deltas, factor): delta = sigma_sq(S) - sigma_sq(S + candidate)
    over ``n`` observations, and ``factor`` the (chol, z, usable) triple
    from which ``back_substitute`` solves the candidates' coefficients.
    Never raises.
    """
    dim, k = u.shape
    chol = np.zeros((dim, dim, k))
    z = np.zeros((dim, k))
    usable = np.ones(k, dtype=bool)
    for j in range(dim):
        row = chol[j, :j]
        pivot_sq = gram[j, j] - np.einsum("lk,lk->k", row, row)
        usable &= _full_rank(pivot_sq, raw_col_sq_max)
        # A degenerate candidate continues on an infinite pivot, which zeroes
        # the rest of its factor instead of dividing by a vanishing one.
        pivot = np.sqrt(np.where(usable, pivot_sq, np.inf))
        chol[j, j] = pivot
        below = gram[j + 1 :, j] - np.einsum("ilk,lk->ik", chol[j + 1 :, :j], row)
        chol[j + 1 :, j] = below / pivot
        z[j] = (u[j] - np.einsum("lk,lk->k", row, z[:j])) / pivot
    deltas = np.where(usable, np.einsum("lk,lk->k", z, z) / n, -np.inf)
    return deltas, (chol, z, usable)


def back_substitute(factor, pos: int) -> np.ndarray:
    """Coefficients of candidate ``pos`` in its extended model, from a
    ``sweep`` factor; zero for a degenerate candidate."""
    chol, z, usable = factor
    dim = z.shape[0]
    gamma = np.zeros(dim)
    if usable[pos]:
        for j in range(dim - 1, -1, -1):
            gamma[j] = (z[j, pos] - chol[j + 1 :, j, pos] @ gamma[j + 1 :]) / chol[j, j, pos]
    return gamma


def rss_reduction(cache: ProjectionCache, block: DesignBlock) -> tuple[float, np.ndarray]:
    """Variance drop from adding ``block`` to the cached model.

    Returns (delta, gamma) with delta = sigma_sq(S) - sigma_sq(S + block)
    >= 0 and gamma the fitted spline coefficients of the candidate in the
    extended model. Raises DegenerateCandidateError when the block fails
    the rank rule.
    """
    deltas, factor = sweep(*residualize(cache, block.matrix[:, None, :]), cache.n)
    if not np.isfinite(deltas[0]):
        raise DegenerateCandidateError(
            f"candidate {block.covariate_index} is collinear with the model"
        )
    return float(deltas[0]), back_substitute(factor, 0)


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
