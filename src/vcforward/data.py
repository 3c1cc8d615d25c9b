"""Dataset container and CSV ingestion.

A dataset always carries an explicit intercept: column 0 of ``x`` is all
ones. The index variable is kept on [0, 1]; raw values outside that range
are min-max rescaled at load time and the affine map is recorded.
"""

from __future__ import annotations

import csv
import re
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError

INTERCEPT_NAME = "intercept"
# Key of the evaluation grid next to the coefficient curves in reports.
GRID_NAME = "t"
_RESERVED_NAMES = frozenset((INTERCEPT_NAME, GRID_NAME))


@dataclass(frozen=True)
class Dataset:
    """Response, index variable and covariate matrix with intercept.

    ``x`` is n x (p+1) with column 0 all ones; ``column_names`` has one
    entry per column of ``x``. ``rescale_map`` is the (a, b) pair such that
    t = (raw - a) / (b - a); the identity map is (0, 1).
    Column 0 is named ``intercept`` and the covariate names must pass
    ``_check_column_names``, so that they key a report unambiguously.
    ``constant_columns``, set from ``x``, lists covariate columns (j >= 1)
    with zero variance as Python ints; they are kept in ``x`` but excluded
    from candidate pools.
    """

    y: np.ndarray
    t: np.ndarray
    x: np.ndarray
    column_names: tuple[str, ...]
    rescale_map: tuple[float, float] = (0.0, 1.0)
    constant_columns: tuple[int, ...] = field(init=False)

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
        if self.column_names[0] != INTERCEPT_NAME:
            raise DataError(f"column 0 must be named {INTERCEPT_NAME!r}")
        _check_column_names(self.column_names[1:], self.column_names[1:])
        if not (np.isfinite(self.y).all() and np.isfinite(self.t).all() and np.isfinite(self.x).all()):
            raise DataError("dataset contains NaN or infinite values")
        if not np.array_equal(self.x[:, 0], np.ones(n)):
            raise DataError("column 0 must be the all-ones intercept")
        if self.t.min() < 0.0 or self.t.max() > 1.0:
            raise DataError("index variable must lie in [0, 1] after rescaling")
        cov = self.x[:, 1:]
        constant = np.flatnonzero(cov.max(axis=0) == cov.min(axis=0)) + 1
        object.__setattr__(self, "constant_columns", tuple(constant.tolist()))

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
    named like those; a blank name could not be named at all. Raises
    DataError naming the first clash, or the 1-based position of the first
    blank name.
    """
    # One pass over valid names; the loops below only locate a failure.
    if (
        all(map(str.strip, names))
        and len(set(names)) == len(names)
        and _RESERVED_NAMES.isdisjoint(covariate_names)
    ):
        return
    seen = set()
    for pos, name in enumerate(names, start=1):
        if not name or name.isspace():
            raise DataError(f"column {pos} has a blank name")
        if name in seen:
            raise DataError(f"duplicate column name {name!r}")
        seen.add(name)
    for name in covariate_names:
        if name in _RESERVED_NAMES:
            raise DataError(f"covariate column name {name!r} is reserved")


@contextmanager
def open_file(path, mode="r", **kw):
    """``open(path, mode, **kw)`` whose failures are DataErrors naming ``path``.

    An OSError, on opening or inside the ``with`` body, is reported by its
    strerror; a UnicodeDecodeError is reported in full.
    """
    try:
        with open(path, mode, **kw) as fh:
            yield fh
    except OSError as exc:
        raise DataError(f"{path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: {exc}") from exc


def from_arrays(y, t, x_covariates, names=None) -> Dataset:
    """Assemble a Dataset from raw covariates (no intercept column yet)."""
    x_cov = np.asarray(x_covariates, dtype=float)
    if x_cov.ndim != 2:
        raise DataError("covariates must form a two-dimensional array")
    n, p = x_cov.shape
    names = tuple(names) if names is not None else tuple(f"x{j}" for j in range(1, p + 1))
    x = np.column_stack([np.ones(n), x_cov])
    return Dataset(y=y, t=t, x=x, column_names=(INTERCEPT_NAME, *names))


# loadtxt's ValueError messages for a cell that is not a number (row counted
# from 0, column from 1) and for a row whose width differs from the first
# row's (row counted from 1). Both counts skip blank lines.
_CONVERT_ERROR = re.compile(
    r"could not convert string (.*) to \w+ at row (\d+), column (\d+)\.$", re.S
)
_WIDTH_ERROR = re.compile(r"the number of columns changed from (\d+) to (\d+) at row (\d+);")


def _cell_error(message: str, header: list[str]) -> str:
    """Restate a loadtxt ValueError message in data rows and header names.

    Rows are numbered from 1 over the non-blank lines after the header. A
    message of another shape is returned unchanged.
    """
    width = len(header)
    match = _CONVERT_ERROR.match(message)
    if match:
        cell, row, col = match.group(1), int(match.group(2)) + 1, int(match.group(3))
        if col > width:
            return f"data row {row} has at least {col} fields, expected {width}"
        return f"non-numeric value {cell} at data row {row}, column {header[col - 1]!r}"
    match = _WIDTH_ERROR.match(message)
    if match:
        first, got, row = (int(g) for g in match.groups())
        if first != width:
            return f"data row 1 has {first} fields, expected {width}"
        return f"data row {row} has {got} fields, expected {width}"
    return message


def _parse_cells(fh, path, header: list[str]) -> np.ndarray:
    """Parse the data rows left in ``fh`` into an n x len(header) matrix.

    Blank lines are skipped; every cell must be a finite number. Raises
    DataError naming the data row and the header column of the first bad
    cell, or the data row and the expected field count of a row of the
    wrong width.
    """
    width = len(header)
    with warnings.catch_warnings():
        # A file with no data rows is reported by the caller, not warned of.
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        try:
            cells = np.loadtxt(fh, delimiter=",", comments=None, quotechar='"', ndmin=2)
        except ValueError as exc:
            raise DataError(f"{path}: {_cell_error(str(exc), header)}") from None
    if not cells.size:
        return np.empty((0, width))
    if cells.shape[1] != width:
        raise DataError(f"{path}: data row 1 has {cells.shape[1]} fields, expected {width}")
    finite = np.isfinite(cells)
    if not finite.all():
        i, j = np.argwhere(~finite)[0]
        raise DataError(
            f"{path}: non-numeric value {str(float(cells[i, j]))!r} at data row {i + 1}, "
            f"column {header[j]!r}"
        )
    return cells


def load_csv(path, y_column: str, t_column: str, min_rows: int | None = None) -> Dataset:
    """Load a dataset from a headered CSV file.

    The file is UTF-8, optionally with a byte order mark, comma-delimited,
    with ``"`` quoting; blank lines are skipped and every data cell must be
    a finite number. All columns other than ``y_column`` and ``t_column``
    become covariates in file order; an intercept column is prepended. The
    index variable is min-max rescaled to [0, 1] when it falls outside that
    range, and the affine map is recorded on the dataset.
    """
    with open_file(path, newline="", encoding="utf-8-sig") as fh:
        try:
            header = [h.strip() for h in next(csv.reader(fh))]
        except StopIteration:
            raise DataError(f"{path}: file is empty") from None
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
            raise DataError(
                f"{path}: no covariate columns besides {y_column!r} and {t_column!r}"
            )
        try:
            _check_column_names(header, [header[i] for i in cov_pos])
        except DataError as exc:
            raise DataError(f"{path}: {exc}") from None
        parsed = _parse_cells(fh, path, header)

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
    return Dataset(y=parsed[:, y_pos], t=t, x=x, column_names=names, rescale_map=rescale)
