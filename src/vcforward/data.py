"""Dataset container and CSV ingestion.

A dataset always carries an explicit intercept: column 0 of ``x`` is all
ones. The index variable is kept on [0, 1]; raw values outside that range
are min-max rescaled at load time and the affine map is recorded.
"""

from __future__ import annotations

import csv
import io
import os
import re
import stat
import threading
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError

INTERCEPT_NAME = "intercept"
# Key of the evaluation grid next to the coefficient curves in reports.
GRID_NAME = "t"
_RESERVED_NAMES = frozenset((INTERCEPT_NAME, GRID_NAME))

# Range of the largest magnitude of the response and of each non-constant
# covariate in which the selection arithmetic is safe. Measured on ex1
# (n=400, p=50, seed 3) by scaling x1 or y: variance drops are exact to
# round-off for largest magnitudes from 3e-154 to 1.6e153. Below, squares go
# subnormal (relative error 2e-11 at 1.6e-155 and 3e-3 at 1.6e-159, so that
# a scale of 1e-200 selects wrongly); above, they overflow (at 1.6e154). The
# bounds keep a margin of 3e3 below and 1e2 above those, and sums of n
# squares stay finite for n up to 1e6.
MAGNITUDE_RANGE = (1e-150, 1e151)

# Data bytes per forked child below which load_csv parses in one process.
# Measured from a 60 MB numpy process on a shared 2-vCPU box, on 400-row
# files of 17-digit cells split in two, medians of 20 interleaved loads: a
# fork and its reap cost about 2.6 ms, and a child's start, page faults and
# exit about 6 ms more. In a fast phase of the host the split loaded 2 MB in
# 23.7 ms against 29.3 ms and 4 MB in 42.6 against 58.1 ms; in a slow phase
# 4 MB in 71 against 75 ms and 6 MB in 103 against 120 ms.
SPLIT_BYTES = 2 << 20


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
    from candidate pools. The response, unless all zero, and every other
    covariate must have a largest magnitude in MAGNITUDE_RANGE.
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
        # NaN and +-inf propagate through max and min: no n x (p+1) mask.
        col_max, col_min = self.x.max(axis=0), self.x.min(axis=0)
        if not all(np.isfinite(v).all() for v in (self.y, self.t, col_max, col_min)):
            raise DataError("dataset contains NaN or infinite values")
        if not col_max[0] == col_min[0] == 1.0:
            raise DataError("column 0 must be the all-ones intercept")
        if self.t.min() < 0.0 or self.t.max() > 1.0:
            raise DataError("index variable must lie in [0, 1] after rescaling")
        low, high = MAGNITUDE_RANGE
        largest = np.maximum(col_max, -col_min)
        outside = (col_max != col_min) & ((largest < low) | (largest > high))
        y_largest = float(np.abs(self.y).max())
        # An all-zero response is an exact fit, not a scale problem.
        if y_largest and not low <= y_largest <= high:
            raise _magnitude_error("the response", y_largest)
        if outside.any():
            j = int(outside.argmax())
            raise _magnitude_error(f"covariate {self.column_names[j]!r}", largest[j])
        constant = np.flatnonzero(col_max[1:] == col_min[1:]) + 1
        object.__setattr__(self, "constant_columns", tuple(constant.tolist()))

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def p(self) -> int:
        return self.x.shape[1] - 1


def _magnitude_error(name: str, largest: float) -> DataError:
    low, high = MAGNITUDE_RANGE
    return DataError(
        f"{name} has largest magnitude {largest:.3g}, outside [{low:g}, {high:g}] "
        "where the selection arithmetic is safe; rescale it"
    )


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


def _first_row_width(fh) -> int | None:
    """Field count of the first data row of the CSV handle ``fh``, reread
    from its start (loadtxt skips empty lines, not whitespace-only ones);
    None when ``fh`` cannot seek."""
    try:
        fh.seek(0)
    except OSError:
        return None
    rows = csv.reader(fh)
    next(rows)
    return len(next(row for row in rows if row))


def _cell_error(message: str, header: list[str], fh) -> str:
    """Restate a loadtxt ValueError message in data rows and header names.

    Rows are numbered from 1 over the non-blank lines after the header. A
    conversion error in the first row, which sets loadtxt's width, is a
    field-count error when that row's width, reread from ``fh``, is wrong. A
    message of another shape is returned unchanged.
    """
    width = len(header)
    match = _CONVERT_ERROR.match(message)
    if match:
        cell, row, col = match.group(1), int(match.group(2)) + 1, int(match.group(3))
        got = _first_row_width(fh) if row == 1 else None
        if col > width:
            total = f" ({got} in all)" if got else ""
            return f"data row {row} has at least {col} fields, expected {width}{total}"
        if got not in (None, width):
            return f"data row 1 has {got} fields, expected {width}"
        return f"non-numeric value {cell} at data row {row}, column {header[col - 1]!r}"
    match = _WIDTH_ERROR.match(message)
    if match:
        first, got, row = (int(g) for g in match.groups())
        if first != width:
            return f"data row 1 has {first} fields, expected {width}"
        return f"data row {row} has {got} fields, expected {width}"
    return message


def _loadtxt(fh) -> np.ndarray:
    """Every cell of the rows left in the CSV text stream ``fh``, blank lines
    skipped; loadtxt's ValueError on a bad cell or a ragged row propagates."""
    with warnings.catch_warnings():
        # A file with no data rows is reported by the caller, not warned of.
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        return np.loadtxt(fh, delimiter=",", comments=None, quotechar='"', ndmin=2)


def _parse_cells(fh, path, header: list[str]) -> np.ndarray:
    """Parse the data rows left in ``fh`` into an n x len(header) matrix.

    ``fh`` has consumed the header line only. Blank lines are skipped; every
    cell must be a finite number. Raises DataError naming the data row and
    the header column of the first bad cell, or the data row and the
    expected field count of a row of the wrong width.
    """
    width = len(header)
    cells = _parse_in_children(fh, header)
    if cells is None:
        try:
            cells = _loadtxt(fh)
        except ValueError as exc:
            raise DataError(f"{path}: {_cell_error(str(exc), header, fh)}") from None
    if not cells.size:
        return np.empty((0, width))
    if cells.shape[1] != width:
        raise DataError(f"{path}: data row 1 has {cells.shape[1]} fields, expected {width}")
    # NaN and +-inf propagate through max and min: no n x width mask.
    if not (np.isfinite(cells.max(axis=0)).all() and np.isfinite(cells.min(axis=0)).all()):
        i, j = np.argwhere(~np.isfinite(cells))[0]
        raise DataError(
            f"{path}: non-numeric value {str(float(cells[i, j]))!r} at data row {i + 1}, "
            f"column {header[j]!r}"
        )
    return cells


def _usable_cores() -> int:
    """Cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _line_end(fd: int, pos: int) -> int:
    """Offset just past the first line feed at or after ``pos`` in file
    ``fd``, or the end of the file when there is none."""
    while chunk := os.pread(fd, 1 << 16, pos):
        at = chunk.find(b"\n")
        if at >= 0:
            return pos + at + 1
        pos += len(chunk)
    return pos


def _parse_in_children(fh, header: list[str]) -> np.ndarray | None:
    """The data rows of ``fh`` parsed by forked children, or None when the
    file is not split or a child fails.

    A regular file whose data bytes reach SPLIT_BYTES per range is cut at
    line feeds into one range per usable core. Child i parses range i with
    ``_loadtxt`` and sends its shape, once parsed, then its rows down pipe i;
    the parent reads every shape, then each child's rows straight into their
    slice of one array, in file order. On None the caller parses in this
    process, which words every error. ``fh`` is read with ``os.pread`` only,
    so its position is unchanged.
    """
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return None
    fd = fh.fileno()
    info = os.fstat(fd)
    if not stat.S_ISREG(info.st_mode):
        return None
    start, size = _line_end(fd, 0), info.st_size
    ranges = min(_usable_cores(), (size - start) // SPLIT_BYTES)
    if ranges < 2:
        return None
    # The data start found above holds only when the header line's bytes
    # alone read as ``header``: a quoted name can hold a line feed, and a
    # carriage return can end the header inside the line.
    try:
        head = io.StringIO(os.pread(fd, start, 0).decode("utf-8-sig"), newline="")
        rows = list(csv.reader(head, strict=True))
    except (UnicodeDecodeError, csv.Error):
        return None
    if [[h.strip() for h in row] for row in rows] != [header]:
        return None
    width = len(header)
    cuts = (_line_end(fd, start + (size - start) * i // ranges) for i in range(1, ranges))
    bounds = sorted({start, *cuts, size})
    pipes, pids = [], []
    try:
        for begin, end in zip(bounds, bounds[1:]):
            read, write = os.pipe()
            pipes.append(open(read, "rb"))
            # After the fork the write end is the child's and the read end the
            # parent's, so a blocked write fails (EPIPE) once the parent closes.
            with open(write, "wb") as sink:
                if (pid := os.fork()) == 0:
                    os.close(read)
                    _parse_range(fd, begin, end, sink)
            pids.append(pid)
        shapes = np.empty((len(pipes), 2), np.int64)
        _fill(pipes, shapes)
        if any(rows and got != width for rows, got in shapes.tolist()):
            return None
        cells = np.empty((shapes[:, 0].sum(), width))
        _fill(pipes, np.split(cells, shapes[:-1, 0].cumsum()))
    except (OSError, EOFError):
        return None
    finally:
        for pipe in pipes:
            pipe.close()
        statuses = [os.waitpid(pid, 0)[1] for pid in pids]
    return None if any(statuses) else cells


def _fill(pipes, parts) -> None:
    """Fill each of ``parts`` from its pipe; EOFError when a pipe ends first."""
    for pipe, part in zip(pipes, parts):
        if pipe.readinto(part) != part.nbytes:
            raise EOFError


def _parse_range(fd: int, begin: int, end: int, out) -> None:
    """Forked child: parse bytes [begin, end) of file ``fd``, write their
    (rows, width) as two int64 and then the rows to the pipe ``out``, and exit
    0; exit nonzero on a quote, a short read or any error. Never returns."""
    code = 1
    try:
        raw = os.pread(fd, end - begin, begin)
        if len(raw) == end - begin and b'"' not in raw:
            part = _loadtxt(io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8", newline=""))
            out.write(np.array(part.shape, np.int64))
            out.write(part)
            out.flush()
            code = 0
    finally:
        os._exit(code)


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

    # The Dataset is built inside ``parsed``: y and t are copied out, the
    # covariates move right into columns 2.. in file order, and column 1
    # becomes the intercept, so x is a view and one copy of the cells is held.
    y, t = parsed[:, y_pos].copy(), parsed[:, t_pos].copy()
    low, high = sorted((y_pos, t_pos))
    _shift_right(parsed, low + 1, high, 1)
    _shift_right(parsed, 0, low, 2)
    parsed[:, 1] = 1.0
    t_min, t_max = float(t.min()), float(t.max())
    rescale = (0.0, 1.0)
    if not (0.0 <= t_min and t_max <= 1.0):
        if t_max == t_min:
            raise DataError(f"{path}: index column {t_column!r} is constant")
        t = (t - t_min) / (t_max - t_min)
        rescale = (t_min, t_max)

    names = (INTERCEPT_NAME, *(header[i] for i in cov_pos))
    return Dataset(y=y, t=t, x=parsed[:, 1:], column_names=names, rescale_map=rescale)


def _shift_right(cells: np.ndarray, start: int, stop: int, by: int) -> None:
    """Move columns [start, stop) of ``cells`` ``by`` places right, in place,
    one block of 256 columns at a time from the right, so that numpy's
    buffer for the overlapping copy is at most n x 256."""
    for hi in range(stop, start, -256):
        lo = max(start, hi - 256)
        cells[:, lo + by : hi + by] = cells[:, lo:hi]
