"""Dataset container and CSV ingestion.

A dataset always carries an explicit intercept: column 0 of ``x`` is all
ones. The index variable is kept on [0, 1]; raw values outside that range
are min-max rescaled at load time and the affine map is recorded.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError

INTERCEPT_NAME = "intercept"
# Key of the evaluation grid next to the coefficient curves in reports.
GRID_NAME = "t"


@dataclass(frozen=True)
class Dataset:
    """Response, index variable and covariate matrix with intercept.

    ``x`` is n x (p+1) with column 0 all ones; ``column_names`` has one
    entry per column of ``x``. ``rescale_map`` is the (a, b) pair such that
    t = (raw - a) / (b - a); the identity map is (0, 1).
    ``constant_columns`` lists covariate columns (j >= 1) with zero
    variance; they are kept in ``x`` but excluded from candidate pools.
    """

    y: np.ndarray
    t: np.ndarray
    x: np.ndarray
    column_names: tuple[str, ...]
    rescale_map: tuple[float, float] = (0.0, 1.0)
    constant_columns: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "y", np.asarray(self.y, dtype=float))
        object.__setattr__(self, "t", np.asarray(self.t, dtype=float))
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        object.__setattr__(self, "column_names", tuple(self.column_names))
        if self.x.ndim != 2:
            raise DataError("covariate matrix must be two-dimensional")
        n = self.x.shape[0]
        if n < 1:
            raise DataError("dataset has no rows")
        if self.x.shape[1] < 2:
            raise DataError("dataset needs at least one covariate besides the intercept")
        if self.y.shape != (n,) or self.t.shape != (n,):
            raise DataError("y, t and x must have matching row counts")
        if len(self.column_names) != self.x.shape[1]:
            raise DataError("one column name per covariate column is required")
        if not (np.isfinite(self.y).all() and np.isfinite(self.t).all() and np.isfinite(self.x).all()):
            raise DataError("dataset contains NaN or infinite values")
        if not np.array_equal(self.x[:, 0], np.ones(n)):
            raise DataError("column 0 must be the all-ones intercept")
        if self.t.min() < 0.0 or self.t.max() > 1.0:
            raise DataError("index variable must lie in [0, 1] after rescaling")

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def p(self) -> int:
        return self.x.shape[1] - 1


def _check_column_names(names, covariate_names) -> None:
    """Reject names that would clash in a report.

    Column names key the report's curves, next to the grid and the
    prepended intercept, so ``names`` must be unique and no covariate may be
    named like those. Raises DataError naming the first clash.
    """
    seen = set()
    for name in names:
        if name in seen:
            raise DataError(f"duplicate column name {name!r}")
        seen.add(name)
    for name in covariate_names:
        if name in (INTERCEPT_NAME, GRID_NAME):
            raise DataError(f"covariate column name {name!r} is reserved")


def _constant_columns(x: np.ndarray) -> tuple[int, ...]:
    """Covariate columns of ``x`` (j >= 1; column 0 is the intercept) whose
    values are all equal, as Python ints, from one scan over x."""
    cov = x[:, 1:]
    if not cov.size:
        return ()
    return tuple(int(j) + 1 for j in np.flatnonzero(cov.max(axis=0) == cov.min(axis=0)))


def from_arrays(y, t, x_covariates, names=None) -> Dataset:
    """Assemble a Dataset from raw covariates (no intercept column yet)."""
    x_cov = np.asarray(x_covariates, dtype=float)
    if x_cov.ndim != 2:
        raise DataError("covariates must form a two-dimensional array")
    n, p = x_cov.shape
    names = tuple(names) if names is not None else tuple(f"x{j}" for j in range(1, p + 1))
    _check_column_names(names, names)
    x = np.column_stack([np.ones(n), x_cov])
    return Dataset(
        y=y,
        t=t,
        x=x,
        column_names=(INTERCEPT_NAME, *names),
        constant_columns=_constant_columns(x),
    )


def load_csv(path, y_column: str, t_column: str, min_rows: int | None = None) -> Dataset:
    """Load a dataset from a headered CSV file.

    All columns other than ``y_column`` and ``t_column`` become covariates
    in file order; an intercept column is prepended. The index variable is
    min-max rescaled to [0, 1] when it falls outside that range, and the
    affine map is recorded on the dataset.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:
                header = [h.strip() for h in next(reader)]
            except StopIteration:
                raise DataError(f"{path}: file is empty") from None
            rows = [row for row in reader if row]
    except OSError as exc:
        raise DataError(f"{path}: {exc.strerror or exc}") from exc

    for needed, role in ((y_column, "response"), (t_column, "index")):
        if needed not in header:
            raise DataError(
                f"{path}: {role} column {needed!r} not found; "
                f"available columns: {', '.join(header)}"
            )
    if y_column == t_column:
        raise DataError(f"{path}: response and index columns must differ")
    y_pos = header.index(y_column)
    t_pos = header.index(t_column)
    cov_pos = [i for i in range(len(header)) if i not in (y_pos, t_pos)]
    if not cov_pos:
        raise DataError(f"{path}: no covariate columns besides {y_column!r} and {t_column!r}")
    try:
        _check_column_names(header, [header[i] for i in cov_pos])
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None

    parsed = np.empty((len(rows), len(header)))
    for i, row in enumerate(rows):
        if len(row) != len(header):
            raise DataError(
                f"{path}: data row {i + 1} has {len(row)} fields, expected {len(header)}"
            )
        for pos, cell in enumerate(row):
            try:
                value = float(cell)
            except ValueError:
                value = math.nan
            if not math.isfinite(value):
                raise DataError(
                    f"{path}: non-numeric value {cell.strip()!r} at data row {i + 1}, "
                    f"column {header[pos]!r}"
                )
            parsed[i, pos] = value

    n = parsed.shape[0]
    if min_rows is not None and n < min_rows:
        raise DataError(f"{path}: {n} rows is too few; at least {min_rows} required")
    if not n:
        raise DataError(f"{path}: no data rows")

    t_raw = parsed[:, t_pos]
    t_min, t_max = float(t_raw.min()), float(t_raw.max())
    if 0.0 <= t_min and t_max <= 1.0:
        t = t_raw
        rescale = (0.0, 1.0)
    else:
        if t_max == t_min:
            raise DataError(f"{path}: index column {t_column!r} is constant")
        t = (t_raw - t_min) / (t_max - t_min)
        rescale = (t_min, t_max)

    x = np.column_stack([np.ones(n), parsed[:, cov_pos]])
    names = (INTERCEPT_NAME, *(header[i] for i in cov_pos))
    return Dataset(
        y=parsed[:, y_pos],
        t=t,
        x=x,
        column_names=names,
        rescale_map=rescale,
        constant_columns=_constant_columns(x),
    )
