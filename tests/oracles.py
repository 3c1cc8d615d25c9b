"""Independent reference implementations used as test oracles.

These deliberately avoid the package's production code paths: the basis
oracle uses the textbook divided-difference recursion, the regression
oracles use dense normal equations / pseudo-inverse projectors.
"""

import numpy as np


def naive_basis(knots, order, dim, t):
    """B-spline values at a point by the plain recursive definition.

    0/0 terms are treated as 0; the last nonempty interval is closed so the
    right endpoint evaluates to the final basis function.
    """
    last = knots[-1]

    def b(i, k):
        if k == 0:
            if knots[i] <= t < knots[i + 1]:
                return 1.0
            if t == last and knots[i] < knots[i + 1] == last:
                return 1.0
            return 0.0
        total = 0.0
        den = knots[i + k] - knots[i]
        if den > 0:
            total += (t - knots[i]) / den * b(i, k - 1)
        den = knots[i + k + 1] - knots[i + 1]
        if den > 0:
            total += (knots[i + k + 1] - t) / den * b(i + 1, k - 1)
        return total

    return np.array([b(i, order - 1) for i in range(dim)])


def _equilibrate(w):
    """w with every nonzero column scaled to unit norm; its span is unchanged.

    The pseudo-inverse and lstsq cut singular values relative to the largest,
    so columns on scales 1e16 apart would otherwise lose the small one.
    """
    norms = np.linalg.norm(w, axis=0)
    return w / np.where(norms > 0.0, norms, 1.0)


def dense_projector(w):
    """Orthogonal projector onto the column space of w, via pseudo-inverse."""
    w = _equilibrate(w)
    return w @ np.linalg.pinv(w)


def residual_pivot_ratio(blocks, cand):
    """Smallest squared QR pivot of ``cand`` with the span of ``blocks``
    projected out (dense projector), over its largest squared raw column
    norm; 0 for an all-zero block."""
    c = cand.matrix
    if blocks:
        c = c - dense_projector(np.hstack([b.matrix for b in blocks])) @ c
    scale = float((cand.matrix**2).sum(axis=0).max())
    if scale == 0.0:
        return 0.0
    return float((np.diag(np.linalg.qr(c, mode="r")) ** 2).min()) / scale


def normal_equations_sigma_sq(blocks, y):
    """RSS / n via an explicit normal-equations solve on the stacked design."""
    y = np.asarray(y, dtype=float)
    n = y.shape[0]
    if not blocks:
        return float(y @ y) / n
    w = np.hstack([b.matrix for b in blocks])
    gram = w.T @ w
    gamma = np.linalg.solve(gram, w.T @ y)
    return float(y @ y - (w.T @ y) @ gamma) / n


def lstsq_gamma(blocks, y):
    """Least-squares coefficients of the stacked blocks via dense lstsq on
    the equilibrated design, scaled back to the raw columns."""
    w = np.hstack([b.matrix for b in blocks])
    norms = np.linalg.norm(w, axis=0)
    gamma, *_ = np.linalg.lstsq(_equilibrate(w), np.asarray(y, dtype=float), rcond=None)
    return gamma / np.where(norms > 0.0, norms, 1.0)


def lstsq_sigma_sq(blocks, y):
    """RSS / n via dense lstsq (rank-tolerant reference)."""
    y = np.asarray(y, dtype=float)
    n = y.shape[0]
    if not blocks:
        return float(y @ y) / n
    resid = y - np.hstack([b.matrix for b in blocks]) @ lstsq_gamma(blocks, y)
    return float(resid @ resid) / n


def benchmark_draw(coeffs, seed, rep_index, purpose, size, p, t1, t2):
    """One benchmark draw, written out from the generators' stated law.

    The stream is keyed by (seed, rep_index, purpose); values are drawn in
    the order u1, u2, z, eps and combined out of place as
    x_j = (z_j + t1 u1) / (1 + t1), t = (u2 + t2 u1) / (1 + t2) and
    y = eps + sum_j coeffs[j](t) x_j, summed in the order of ``coeffs``.
    Returns (y, t, x, constant_columns) with x the raw (size, p) covariates
    and constant_columns the 1-based indices of columns with one value.
    """
    rng = np.random.default_rng(np.random.SeedSequence((seed, rep_index, purpose)))
    u1 = rng.random(size)
    u2 = rng.random(size)
    z = rng.standard_normal((size, p))
    eps = rng.standard_normal(size)
    x = (z + t1 * u1[:, None]) / (1.0 + t1)
    t = (u2 + t2 * u1) / (1.0 + t2)
    y = eps.copy()
    for j, coeff in coeffs.items():
        y = y + coeff(t) * x[:, j - 1]
    constant = tuple(j + 1 for j in range(p) if len(set(x[:, j].tolist())) == 1)
    return y, t, x, constant


def snr_full_draw(coeffs, seed, t1, t2, samples):
    """Signal variance of a benchmark model from one full-size draw.

    The stream is keyed by (seed, 0, 2); u1, u2 and then every active
    covariate's normals are drawn in single calls, and the signal
    sum_j coeffs[j](t) x_j is summed in increasing j, out of place.
    """
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0, 2)))
    u1 = rng.random(samples)
    u2 = rng.random(samples)
    z = rng.standard_normal((samples, len(coeffs)))
    x = (z + t1 * u1[:, None]) / (1.0 + t1)
    t = (u2 + t2 * u1) / (1.0 + t2)
    signal = np.zeros(samples)
    for k, j in enumerate(sorted(coeffs)):
        signal = signal + coeffs[j](t) * x[:, k]
    return float(np.var(signal))
