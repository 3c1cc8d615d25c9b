"""Equi-spaced B-spline bases on [0, 1] and per-covariate design blocks.

The basis is clamped (open knot vector): the endpoint knots are repeated
``order`` times, so the first/last basis function interpolates the ends.
Evaluation uses the Cox-de Boor triangular recurrence, vectorized over
evaluation points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class SplineBasis:
    """Clamped equi-spaced B-spline basis of dimension ``dim`` on [0, 1].

    Parameters
    ----------
    order : int
        Polynomial degree plus one (4 = cubic).
    dim : int
        Number of basis functions.
    knots : np.ndarray
        Full knot vector of length ``dim + order``; 0 and 1 each repeated
        ``order`` times, interior knots equi-spaced.
    """

    order: int
    dim: int
    knots: np.ndarray

    @property
    def degree(self) -> int:
        return self.order - 1

    @property
    def interior_knots(self) -> np.ndarray:
        return self.knots[self.order : self.dim]


@dataclass(frozen=True)
class DesignBlock:
    """Spline regressors of one covariate: row i is basis(t_i) * x_i."""

    covariate_index: int
    matrix: np.ndarray  # n x dim


def build_basis(dim: int, order: int = 4) -> SplineBasis:
    """Construct the clamped equi-spaced basis with ``dim`` functions.

    There are ``dim - order`` interior knots, placed at k / (dim - order + 1)
    for k = 1, ..., dim - order. Requires ``dim >= order >= 2``.
    """
    if order < 2:
        raise ConfigError(f"spline order must be >= 2, got {order}")
    if dim < order:
        raise ConfigError(f"basis dimension must be >= order ({order}), got {dim}")
    n_interior = dim - order
    interior = np.arange(1, n_interior + 1) / (n_interior + 1)
    knots = np.concatenate([np.zeros(order), interior, np.ones(order)])
    return SplineBasis(order=order, dim=dim, knots=knots)


def basis_matrix(basis: SplineBasis, t_values: np.ndarray) -> np.ndarray:
    """Evaluate all basis functions at each point; returns an n x dim matrix.

    Rows are nonnegative, sum to one, and have at most ``order`` nonzero
    entries. Points must lie in [0, 1].
    """
    t = np.atleast_1d(np.asarray(t_values, dtype=float))
    if t.ndim != 1:
        raise ValueError("t_values must be one-dimensional")
    if t.size and (t.min() < 0.0 or t.max() > 1.0):
        raise ValueError("evaluation points must lie in [0, 1]; rescale first")
    p = basis.degree
    u = basis.knots
    # Knot span per point: u[span] <= t < u[span+1], clamped so t = 1 uses
    # the last nonempty span.
    span = np.searchsorted(u, t, side="right") - 1
    span = np.clip(span, p, basis.dim - 1)

    npts = t.size
    vals = np.zeros((npts, p + 1))
    left = np.zeros((npts, p + 1))
    right = np.zeros((npts, p + 1))
    vals[:, 0] = 1.0
    for j in range(1, p + 1):
        left[:, j] = t - u[span + 1 - j]
        right[:, j] = u[span + j] - t
        saved = np.zeros(npts)
        for r in range(j):
            tmp = vals[:, r] / (right[:, r + 1] + left[:, j - r])
            vals[:, r] = saved + right[:, r + 1] * tmp
            saved = left[:, j - r] * tmp
        vals[:, j] = saved

    out = np.zeros((npts, basis.dim))
    cols = span[:, None] - p + np.arange(p + 1)[None, :]
    np.put_along_axis(out, cols, vals, axis=1)
    return out


def design_block(
    basis: SplineBasis,
    t_values: np.ndarray,
    x_column: np.ndarray,
    covariate_index: int = -1,
) -> DesignBlock:
    """Build the n x dim block whose row i is basis(t_i) scaled by x_i."""
    t = np.asarray(t_values, dtype=float)
    x = np.asarray(x_column, dtype=float)
    if t.shape != x.shape or t.ndim != 1:
        raise ValueError(
            f"t_values and x_column must be 1-d with equal length, "
            f"got {t.shape} and {x.shape}"
        )
    return DesignBlock(covariate_index, basis_matrix(basis, t) * x[:, None])
