"""Least-squares machinery over blockwise spline designs.

The projection cache factors the current model's design as W = QR, and
``extend_cache`` alone grows Q and R, by one block at a time. Full fits
solve R gamma = Q^T y on that factor. A whole candidate pool is scored by
one batched sweep, tile by tile: one small (dim x dim) Cholesky per
candidate, of its Gram with the model span projected out
(``CandidateGrams``), instead of a full refit. One rank rule decides
usability on both. It keeps R's diagonal nonzero, so the LU in
np.linalg.solve on R (upper triangular) takes no row swaps: a triangular
solve that never raises.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import OverparameterizedError, SingularDesignError
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


def fit_full(cache: ProjectionCache, y: np.ndarray) -> FitResult:
    """Least-squares fit of y on the design that ``cache`` factors.

    One triangular solve R gamma = Q^T y on the cache's W = QR factor, such
    as ``SelectionTrace.final_cache`` or ``build_projection_cache``'s; the
    variance estimate sigma_sq = RSS / n is the cache's. Never raises.
    """
    gamma = np.linalg.solve(cache.r, cache.q.T @ np.asarray(y, dtype=float))
    return FitResult(cache.index_set, gamma, cache.sigma_sq, True)


def extend_cache(cache: ProjectionCache, block: DesignBlock) -> ProjectionCache:
    """Return a new cache with ``block`` absorbed into the model span.

    Projects the block off Q twice (classical Gram-Schmidt with
    reorthogonalization) before the QR step, which keeps the grown basis
    orthonormal to round-off; both projections' coefficients enter the new
    columns of R. The residual is downdated by the new columns alone.
    Raises SingularDesignError when the block fails the rank rule.
    """
    q, w = cache.q, block.matrix
    c = q.T @ w
    v = w - q @ c
    c2 = q.T @ v
    v -= q @ c2
    qn, rn = np.linalg.qr(v)
    if not _full_rank((np.diag(rn) ** 2).min(), np.einsum("ij,ij->j", w, w).max()):
        raise SingularDesignError("block is numerically collinear with the current design")
    m, d = cache.r.shape[0], rn.shape[1]
    r = np.zeros((m + d, m + d))
    r[:m, :m] = cache.r
    r[:m, m:] = c + c2
    r[m:, m:] = rn
    resid = cache.residual_y - qn @ (qn.T @ cache.residual_y)
    return ProjectionCache(
        cache.index_set + (block.covariate_index,),
        np.hstack([q, qn]),
        r,
        resid,
        float(resid @ resid) / cache.n,
    )


def build_projection_cache(blocks: list[DesignBlock], y: np.ndarray) -> ProjectionCache:
    """Factor the span of the given blocks and project y off it: ``extend_cache``
    by each block in turn, from the empty model.

    Raises OverparameterizedError when the stacked design has more columns
    than rows and SingularDesignError, naming the covariate index of the
    first block collinear with those before it, when it is rank deficient.
    """
    y = np.asarray(y, dtype=float)
    n = y.shape[0]
    for b in blocks:
        if b.matrix.shape[0] != n:
            raise ValueError(
                f"block for covariate {b.covariate_index} has {b.matrix.shape[0]} "
                f"rows, expected {n}"
            )
    m_total = sum(b.matrix.shape[1] for b in blocks)
    if m_total > n:
        raise OverparameterizedError(f"{m_total} coefficients for {n} observations")
    cache = ProjectionCache((), np.zeros((n, 0)), np.zeros((0, 0)), y.copy(), float(y @ y) / n)
    for b in blocks:
        try:
            cache = extend_cache(cache, b)
        except SingularDesignError as exc:
            raise SingularDesignError(
                f"covariate index {b.covariate_index}: {exc}", b.covariate_index
            ) from None
    return cache


# Covariate columns per GEMM when the raw Grams are formed. The set-up
# squares n x GRAM_BLOCK_COLUMNS covariate values at a time, so it stays
# narrower than a sweep's tile, whose scratch has no factor of n.
GRAM_BLOCK_COLUMNS = 256

# Candidates per tile of a sweep. A tile's projection product and Cholesky
# factors are a forward step's scratch, O(TILE_COLUMNS dim^2) floats
# whatever the pool size.
TILE_COLUMNS = 4096


def _row_products(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise Kronecker products: column (i, l) of the result is a_i * b_l."""
    return (a[:, :, None] * b[:, None, :]).reshape(a.shape[0], -1)


class CandidateGrams:
    """The candidate pool: sorted covariate ``index``, the ``alive`` mask of
    those not yet accepted, and the Grams of their blocks
    W_j = diag(x_j) B, with the first ``m`` columns of Q projected out.

    With B the (n, dim) basis matrix and x the (n, k) pool columns (a view
    when ``index`` is one contiguous range, a gathered copy otherwise), the
    raw Grams are GEMMs (B_l B_m)^T x^2 over the lower triangle l >= m, one
    block of GRAM_BLOCK_COLUMNS columns of x at a time, and their diagonals
    give the rank rule's scale. ``gram`` is (dim (dim + 1) / 2, k): the
    lower triangle packed column by column, G[c:, c] for c = 0 .. dim - 1,
    which is all ``sweep`` reads. ``sweep`` takes the model's orthonormal
    columns Q off them as G_j - C_j^T C_j with C = (Q_a B_l)^T x, one tile
    of TILE_COLUMNS candidates at a time. The pool holds dim (dim + 1) / 2
    + 1 floats per candidate, the Grams and the scale, besides x: no
    (n, k, dim) stack is formed, and nothing of a sweep outlives it.

    A downdated Gram squares each block's condition number, so a winner is
    confirmed on its QR factor extension (``block``, ``extend_cache``).
    """

    def __init__(self, bmat: np.ndarray, x: np.ndarray, index: np.ndarray):
        """The pool of the covariates ``index`` of ``x``, with no model
        projected out yet."""
        self.bmat = bmat
        self.index = index
        if index.size and index[-1] - index[0] + 1 == index.size:
            self.x = x[:, index[0] : index[-1] + 1]
        else:
            self.x = x[:, index]
        self.alive = np.ones(index.size, dtype=bool)
        self.m = 0
        k, dim = index.size, bmat.shape[1]
        cols, rows = np.triu_indices(dim)
        products = (bmat[:, rows] * bmat[:, cols]).T
        self.gram = np.empty((rows.size, k))
        for start in range(0, k, GRAM_BLOCK_COLUMNS):
            block = self.x[:, start : start + GRAM_BLOCK_COLUMNS]
            np.matmul(products, block * block, out=self.gram[:, start : start + block.shape[1]])
        self.col_sq_max = self.gram[rows == cols].max(axis=0)

    def block(self, pos: int) -> DesignBlock:
        """The design block of the candidate at position ``pos``."""
        return DesignBlock(int(self.index[pos]), self.bmat * self.x[:, pos : pos + 1])


def sweep(grams: CandidateGrams, cache: ProjectionCache) -> np.ndarray:
    """Variance drop of every candidate against the model that ``cache``
    factors.

    One pass over the pool, one tile of TILE_COLUMNS candidates at a time.
    On each tile, one GEMM gives the products (Q_a B_l)^T x over the
    columns of Q past ``grams.m``, which downdate the packed Grams one
    column slab at a time, and the cross products u = (B r)^T x with the
    residual; then each of the tile's downdated Grams is Cholesky-factored,
    vectorized over the tile with a loop over its ``dim`` columns, each
    reading its pivot and the column below it from that column's slab, and
    z = L^-1 u is solved alongside. Afterwards ``grams.m`` is the width of Q.

    A candidate scores its variance drop sigma_sq(S) - sigma_sq(S +
    candidate) = z.z / n. An accepted candidate, and one whose pivot fails
    the rank rule (degenerate), scores -inf. Never raises.
    """
    bmat, q = grams.bmat, cache.q[:, grams.m :]
    (n, k), dim = grams.x.shape, bmat.shape[1]
    left_t = np.hstack([_row_products(q, bmat), bmat * cache.residual_y[:, None]]).T
    # One buffer per pass, reused by every tile: first the tile's GEMM
    # product, then its Cholesky factor and z. Every entry read is written
    # first: u is copied into z's place once the downdate has read the
    # product (both are dim x w blocks at multiples of dim w, so they are
    # the same region or disjoint), column l of the factor's strict lower
    # triangle is written by pass l, before pass j > l reads it, and z[j] is
    # solved in place.
    scratch = np.empty(max(left_t.shape[0], dim * dim + dim) * min(k, TILE_COLUMNS))
    # Column c of a packed Gram, G[c:, c], is rows starts[c] .. starts[c + 1] - 1.
    scores, starts = np.empty(k), np.cumsum([0, *range(dim, 0, -1)])
    for start in range(0, k, TILE_COLUMNS):
        cols = slice(start, start + TILE_COLUMNS)
        x = grams.x[:, cols]
        w = x.shape[1]
        prod = np.matmul(left_t, x, out=scratch[: left_t.shape[0] * w].reshape(-1, w))
        c = prod[:-dim].reshape(-1, dim, w)
        gram = grams.gram[:, cols]
        for m in range(dim):
            gram[starts[m] : starts[m + 1]] -= np.einsum("alk,ak->lk", c[:, m:], c[:, m])
        # The factor is stored transposed, chol[l, i] = L[i, l], so that each
        # new column of L is one contiguous block: numpy updates that in
        # place, where on a strided view it would copy the operand.
        chol = scratch[: dim * dim * w].reshape(dim, dim, w)
        z = scratch[dim * dim * w : (dim * dim + dim) * w].reshape(dim, w)
        z[...] = prod[-dim:]
        usable = grams.alive[cols].copy()
        for j in range(dim):
            row, slab = chol[:j, j], gram[starts[j] : starts[j + 1]]
            pivot_sq = slab[0] - np.einsum("lk,lk->k", row, row)
            usable &= _full_rank(pivot_sq, grams.col_sq_max[cols])
            # A degenerate candidate continues on an infinite pivot, which
            # zeroes the rest of its factor instead of dividing by a
            # vanishing one.
            pivot = np.sqrt(np.where(usable, pivot_sq, np.inf))
            col = chol[j, j + 1 :]
            np.einsum("lik,lk->ik", chol[:j, j + 1 :], row, out=col)
            np.subtract(slab[1:], col, out=col)
            col /= pivot
            z[j] -= np.einsum("lk,lk->k", row, z[:j])
            z[j] /= pivot
        scores[cols] = np.einsum("lk,lk->k", z, z) / n
        scores[cols][~usable] = -np.inf
    grams.m = cache.q.shape[1]
    return scores


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
