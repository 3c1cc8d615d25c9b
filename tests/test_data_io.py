"""CSV ingestion, dataset invariants, and report/curve writers."""

import json
import os
import re
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import vcforward as vf
from vcforward import data
from vcforward.cli import main
from vcforward.errors import DataError
from vcforward.report import (
    build_selection_report,
    curve_grid,
    selection_curves,
    write_curves,
    write_report,
)


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(str(v) for v in row) + "\n")


def test_load_tiny_file(tmp_path):
    path = tmp_path / "tiny.csv"
    _write_csv(path, ["y", "t", "x1"], [[1.0, 0.1, 2.0], [2.0, 0.5, -1.0], [0.5, 0.9, 0.0]])
    ds = vf.load_csv(path, "y", "t")
    assert ds.n == 3 and ds.p == 1
    assert ds.column_names == ("intercept", "x1")
    np.testing.assert_array_equal(ds.x[:, 0], np.ones(3))
    assert ds.rescale_map == (0.0, 1.0)


def test_load_rescales_index_variable(tmp_path):
    path = tmp_path / "wide_t.csv"
    _write_csv(path, ["y", "t", "a"], [[1, -3.0, 1], [2, 2.0, 2], [3, 7.0, 3]])
    ds = vf.load_csv(path, "y", "t")
    assert ds.rescale_map == (-3.0, 7.0)
    np.testing.assert_allclose(ds.t, [0.0, 0.5, 1.0])


def test_load_missing_column_lists_available(tmp_path):
    path = tmp_path / "m.csv"
    _write_csv(path, ["y", "t", "a"], [[1, 0, 1]])
    with pytest.raises(DataError, match="available columns: y, t, a"):
        vf.load_csv(path, "resp", "t")


def test_load_non_numeric_reports_row_and_column(tmp_path):
    path = tmp_path / "bad.csv"
    _write_csv(path, ["y", "t", "a"], [[1, 0.1, 1], [2, "oops", 2]])
    with pytest.raises(DataError, match=r"data row 2, column 't'"):
        vf.load_csv(path, "y", "t")


def test_load_rejects_nan_cells(tmp_path):
    path = tmp_path / "nan.csv"
    _write_csv(path, ["y", "t", "a"], [[1, 0.1, "nan"]])
    with pytest.raises(DataError, match="row 1, column 'a'"):
        vf.load_csv(path, "y", "t")


def test_load_too_few_rows(tmp_path):
    path = tmp_path / "short.csv"
    _write_csv(path, ["y", "t", "a"], [[1, 0.1, 1], [2, 0.2, 2]])
    with pytest.raises(DataError, match="too few"):
        vf.load_csv(path, "y", "t", min_rows=10)


def test_load_header_only_file_is_data_error(tmp_path):
    path = tmp_path / "header_only.csv"
    _write_csv(path, ["y", "t", "a"], [])
    with pytest.raises(DataError, match=r"header_only\.csv: no data rows"):
        vf.load_csv(path, "y", "t")


def test_load_flags_constant_covariates(tmp_path):
    path = tmp_path / "const.csv"
    _write_csv(
        path,
        ["y", "t", "a", "b"],
        [[1, 0.1, 5.0, 1.0], [2, 0.2, 5.0, 2.0], [3, 0.9, 5.0, 3.0]],
    )
    ds = vf.load_csv(path, "y", "t")
    assert ds.constant_columns == (1,)


def test_load_missing_file():
    with pytest.raises(DataError):
        vf.load_csv("/nonexistent/data.csv", "y", "t")


def test_csv_round_trip_preserves_full_precision(tmp_path):
    rng = np.random.default_rng(2)
    y = rng.standard_normal(6)
    t = rng.random(6)
    a = rng.standard_normal(6)
    path = tmp_path / "rt.csv"
    _write_csv(
        path,
        ["y", "t", "a"],
        [[repr(float(y[i])), repr(float(t[i])), repr(float(a[i]))] for i in range(6)],
    )
    ds = vf.load_csv(path, "y", "t")
    np.testing.assert_array_equal(ds.y, y)
    np.testing.assert_array_equal(ds.t, t)
    np.testing.assert_array_equal(ds.x[:, 1], a)


def test_dataset_invariants_enforced():
    good = dict(
        y=np.zeros(3),
        t=np.array([0.0, 0.5, 1.0]),
        x=np.column_stack([np.ones(3), np.arange(3.0)]),
        column_names=("intercept", "a"),
    )
    vf.Dataset(**good)
    bad_intercept = dict(good, x=np.column_stack([np.full(3, 2.0), np.arange(3.0)]))
    with pytest.raises(DataError):
        vf.Dataset(**bad_intercept)
    bad_t = dict(good, t=np.array([0.0, 0.5, 1.5]))
    with pytest.raises(DataError):
        vf.Dataset(**bad_t)
    bad_nan = dict(good, y=np.array([0.0, np.nan, 1.0]))
    with pytest.raises(DataError):
        vf.Dataset(**bad_nan)
    with pytest.raises(DataError, match="no rows"):
        vf.from_arrays(np.zeros(0), np.zeros(0), np.zeros((0, 2)))


@pytest.mark.parametrize(
    "names,bad",
    [
        (("intercept", "a", "a", "b"), "duplicate column name 'a'"),
        (("intercept", "t", "b"), "covariate column name 't' is reserved"),
        (("intercept", ""), "column 1 has a blank name"),
        (("t", "a"), "column 0 must be named 'intercept'"),
    ],
    ids=["duplicate", "grid-name", "blank", "intercept-misnamed"],
)
def test_dataset_rejects_clashing_column_names(names, bad):
    # Built directly, not through from_arrays or load_csv.
    n = 6
    x = np.column_stack([np.ones(n), np.arange(n * (len(names) - 1.0)).reshape(n, -1)])
    with pytest.raises(DataError, match=re.escape(bad)):
        vf.Dataset(np.zeros(n), np.linspace(0.0, 1.0, n), x, names)


def test_dataset_sets_constant_columns_from_x():
    n = 5
    x = np.column_stack([np.ones(n), np.arange(n, dtype=float), np.full(n, 2.5), -np.ones(n)])
    ds = vf.Dataset(np.zeros(n), np.linspace(0.0, 1.0, n), x, ("intercept", "a", "b", "c"))
    assert ds.constant_columns == (2, 3)
    assert all(type(j) is int for j in ds.constant_columns)


@pytest.mark.parametrize(
    "names,bad",
    [(["a", "t"], "'t'"), (["a", "a"], "'a'"), (["intercept", "a"], "'intercept'")],
    ids=["grid-name", "duplicate", "intercept-name"],
)
def test_from_arrays_rejects_clashing_column_names(names, bad):
    rng = np.random.default_rng(4)
    with pytest.raises(DataError, match=bad):
        vf.from_arrays(rng.standard_normal(10), rng.random(10), rng.standard_normal((10, 2)), names)


@pytest.mark.parametrize(
    "header,pos",
    [("y,t,,b", 3), ("y,t, ,b", 3), ("y,t,a,", 4)],
    ids=["empty", "whitespace", "trailing-comma"],
)
def test_load_rejects_blank_header_names(tmp_path, header, pos):
    path = tmp_path / "blank.csv"
    width = header.count(",") + 1
    path.write_text(header + "\n" + ",".join(["0.5"] * width) + "\n", encoding="utf-8")
    with pytest.raises(DataError, match=rf"blank\.csv: column {pos} has a blank name"):
        vf.load_csv(path, "y", "t")


@pytest.mark.parametrize("names", [["a", ""], ["a", "  "]], ids=["empty", "whitespace"])
def test_from_arrays_rejects_blank_column_names(names):
    rng = np.random.default_rng(4)
    with pytest.raises(DataError, match="column 2 has a blank name"):
        vf.from_arrays(rng.standard_normal(10), rng.random(10), rng.standard_normal((10, 2)), names)


_LOADED = [[1.0, 0.5, 2.0], [3.0, 0.25, 4.0]]


@pytest.mark.parametrize(
    "text,outcome",
    [
        # These load, with the same values.
        pytest.param("\ufeffy,t,a\n1,0.5,2\n3,0.25,4\n", _LOADED, id="bom"),
        pytest.param('"y","t","a"\n"1","0.5",2\n3,0.25,"4"\n', _LOADED, id="quoted"),
        pytest.param("y,t,a\r\n1,0.5,2\r\n3,0.25,4\r\n", _LOADED, id="crlf"),
        pytest.param("y,t,a\n\n1,0.5,2\n\n\n3,0.25,4\n\n", _LOADED, id="blank-lines"),
        # A row of the wrong width names the row and the expected field count.
        pytest.param(
            "y,t,a\n1,0.5,2,\n3,0.25,4,\n",
            "data row 1 has at least 4 fields, expected 3",
            id="trailing-delimiter",
        ),
        pytest.param(
            "y,t,a\n1,0.5,2\n3,0.25,4,\n", "data row 2 has 4 fields, expected 3",
            id="trailing-delimiter-later",
        ),
        pytest.param(
            "y,t,a\n1,0.5,2\n\n3,0.25\n", "data row 2 has 2 fields, expected 3",
            id="ragged-later",
        ),
        pytest.param(
            "y,t,a\n1,0.5\n3,0.25\n", "data row 1 has 2 fields, expected 3", id="short-first"
        ),
        pytest.param(
            "y,t,a\n1,0.5,2,7\n3,0.25,4\n", "data row 1 has 4 fields, expected 3",
            id="long-first",
        ),
        pytest.param(
            "y,t,a\n1,0.5,2,7\n", "data row 1 has 4 fields, expected 3", id="long-only-row"
        ),
        pytest.param(
            "y,t,a\n1,0.5,2\n   \n3,0.25,4\n", "data row 2 has 1 fields, expected 3",
            id="whitespace-line",
        ),
        # A cell that is not a finite number names the row and the column.
        pytest.param(
            "y,t,a\n1,0.5,2\n3,0.25,nan\n", "non-numeric value 'nan' at data row 2, column 'a'",
            id="nan",
        ),
        pytest.param(
            "y,t,a\n1,inf,2\n", "non-numeric value 'inf' at data row 1, column 't'", id="inf"
        ),
        pytest.param(
            "y,t,a\n1,0.5,2\n\n-inf,0.25,4\n",
            "non-numeric value '-inf' at data row 2, column 'y'",
            id="minus-inf",
        ),
        pytest.param(
            "y,t,a\n1,,2\n", "non-numeric value '' at data row 1, column 't'", id="empty-cell"
        ),
        pytest.param(
            "y,t,a\n1,0.5,2\n#2,0.25,4\n", "non-numeric value '#2' at data row 2, column 'y'",
            id="hash",
        ),
        pytest.param(
            "y,t,a\n1,0.5,1_0\n", "non-numeric value '1_0' at data row 1, column 'a'",
            id="underscore",
        ),
        # Python's float accepts non-ASCII digits; loadtxt does not.
        pytest.param(
            "y,t,a\n1,0.5,\uff11\n", "non-numeric value '\uff11' at data row 1, column 'a'",
            id="fullwidth-digit",
        ),
        pytest.param(
            "y,t,a\n\u0663,0.5,2\n", "non-numeric value '\u0663' at data row 1, column 'y'",
            id="arabic-indic-digit",
        ),
        # A non-numeric cell is reported before a NaN cell, even a later one.
        pytest.param(
            "y,t,a\nnan,0.5,2\n3,0.25,oops\n",
            "non-numeric value 'oops' at data row 2, column 'a'",
            id="non-numeric-before-nan",
        ),
        # Column roles: an index outside [0, 1] that cannot be rescaled, and
        # no covariate left besides y and t.
        pytest.param(
            "y,t,a\n1,2,3\n4,2,5\n", "index column 't' is constant", id="constant-index"
        ),
        pytest.param(
            "y,t\n1,0.5\n", "no covariate columns besides 'y' and 't'", id="no-covariates"
        ),
        # Files without data rows keep their messages.
        pytest.param("y,t,a\n", "no data rows", id="header-only"),
        pytest.param("y,t,a\n\n\n", "no data rows", id="header-and-blank-lines"),
        pytest.param("", "file is empty", id="empty-file"),
    ],
)
def test_load_csv_edge_cases(tmp_path, text, outcome):
    path = tmp_path / "edge.csv"
    path.write_bytes(text.encode("utf-8"))
    if isinstance(outcome, str):
        with pytest.raises(DataError, match=re.escape(f"edge.csv: {outcome}")):
            vf.load_csv(path, "y", "t")
        return
    ds = vf.load_csv(path, "y", "t")
    assert ds.column_names == ("intercept", "a")
    want = np.array(outcome)
    np.testing.assert_array_equal(ds.y, want[:, 0])
    np.testing.assert_array_equal(ds.t, want[:, 1])
    np.testing.assert_array_equal(ds.x[:, 1], want[:, 2])



def test_load_response_and_index_must_differ(tmp_path):
    path = tmp_path / "same.csv"
    _write_csv(path, ["y", "t", "a"], [[1, 0.5, 3]])
    with pytest.raises(DataError, match=r"same\.csv: response and index columns must differ"):
        vf.load_csv(path, "t", "t")


@pytest.mark.parametrize(
    "text,outcome",
    [
        # loadtxt stops at the first field past the header's width; the
        # message also counts the whole row.
        pytest.param(
            "y,t,a\n1,0.1,2,\n", "data row 1 has at least 4 fields, expected 3 (4 in all)",
            id="trailing-delimiter-count",
        ),
        pytest.param(
            "y,t,a\n1,0.1,2,,\n3,0.2,4\n",
            "data row 1 has at least 4 fields, expected 3 (5 in all)",
            id="two-trailing-delimiters",
        ),
        # A whitespace-only first row is one field wide, as it is later on.
        pytest.param(
            "y,t,a\n   \n1,0.1,2\n", "data row 1 has 1 fields, expected 3", id="whitespace-first"
        ),
        pytest.param(
            "\ufeffy,t,a\n\n   \n1,0.1,2\n", "data row 1 has 1 fields, expected 3",
            id="bom-blank-whitespace-first",
        ),
        # A short first row with a bad cell is a field-count error too.
        pytest.param(
            "y,t,a\nabc,0.1\n", "data row 1 has 2 fields, expected 3", id="short-first-non-numeric"
        ),
        # A bad cell in a first row of the right width stays non-numeric.
        pytest.param(
            'y,t,a\n"1,5",0.1,2\n', "non-numeric value '1,5' at data row 1, column 'y'",
            id="quoted-comma",
        ),
    ],
)
def test_load_csv_first_row_width_errors_give_the_row_width(tmp_path, text, outcome):
    path = tmp_path / "edge.csv"
    path.write_bytes(text.encode("utf-8"))
    with pytest.raises(DataError, match=re.escape(f"edge.csv: {outcome}")):
        vf.load_csv(path, "y", "t")


def _scaled_ex1(column, scale):
    """ex1 (n=400, p=50, seed 3, rep 0) with y or x1 multiplied by ``scale``."""
    train, _ = vf.generate(vf.SimScenario("ex1", n=400, p=50, seed=3, reps=1), 0)
    y, x = train.y.copy(), train.x[:, 1:].copy()
    if column == "y":
        y *= scale
    else:
        x[:, 0] *= scale
    return y, train.t, x


@pytest.mark.parametrize("scale", [1e160, 1e200, 1e-160, 1e-200])
@pytest.mark.parametrize("column,name", [("y", "the response"), ("x1", "covariate 'x1'")])
def test_dataset_rejects_magnitudes_outside_the_safe_range(column, name, scale):
    # Unchecked, these scales select wrongly: overflowed squares past 1e154,
    # subnormal ones (a score error of 1.5e-4 at 1e-160) and zero ones below.
    y, t, x = _scaled_ex1(column, scale)
    with pytest.raises(DataError, match=f"^{name} has largest magnitude .* outside"):
        vf.from_arrays(y, t, x)


@pytest.mark.parametrize(
    "column,scale", [("x1", 1e150), ("x1", 1e-145), ("y", 1e149), ("y", 1e-145)]
)
def test_dataset_accepts_magnitudes_in_the_safe_range(column, scale):
    # Inside the range (largest magnitudes 3.3e150 and 3.3e-145 for x1,
    # 1.6e150 and 1.6e-144 for y), selection is the unscaled one.
    basis = vf.build_basis(7, 4)
    ds = vf.from_arrays(*_scaled_ex1(column, scale))
    trace = vf.run_forward(ds, basis, vf.EbicConfig(eta=0.0))
    assert trace.final_set == (0, 3, 1, 4, 2)


def test_dataset_scale_check_spares_constant_columns_and_a_zero_response():
    n = 30
    t = np.linspace(0.0, 1.0, n)
    x = np.column_stack([np.full(n, 1e200), np.full(n, 1e-200), np.linspace(-1.0, 1.0, n)])
    ds = vf.from_arrays(np.zeros(n), t, x)
    assert ds.constant_columns == (1, 2)


def test_dataset_checks_finiteness_without_a_full_mask():
    # An n x (p+1) bool mask would be 4.0 MB here; the per-column extremes
    # and the name check stay under 1 MB.
    n, p = 400, 10_000
    rng = np.random.default_rng(7)
    x = np.empty((n, p + 1))
    x[:, 0] = 1.0
    x[:, 1:] = rng.standard_normal((n, p))
    names = ("intercept",) + tuple(f"x{j}" for j in range(1, p + 1))
    y, t = rng.standard_normal(n), rng.random(n)
    tracemalloc.start()
    try:
        vf.Dataset(y, t, x, names)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1e6, f"peak traced allocation {peak / 1e6:.2f} MB"
    for col in (0, 1, p):
        for bad in (np.nan, np.inf, -np.inf):
            x_bad = x[:50, :].copy()
            x_bad[17, col] = bad
            with pytest.raises(DataError, match="dataset contains NaN or infinite values"):
                vf.Dataset(y[:50], t[:50], x_bad, names)


@pytest.mark.parametrize(
    "raw", [b"y,t,\xffa\n1,0.5,2\n", b"y,t,a\n" + b"1,0.5,2\n" * 2000 + b"1,0.5,\xff2\n"],
    ids=["header", "late-row"],
)
def test_load_non_utf8_file_is_data_error(tmp_path, raw):
    path = tmp_path / "latin.csv"
    path.write_bytes(raw)
    with pytest.raises(DataError, match=r"latin\.csv: 'utf-8' codec can't decode byte 0xff"):
        vf.load_csv(path, "y", "t")


def test_simulate_non_utf8_scenario_file_is_data_error(tmp_path, capsys):
    path = tmp_path / "latin.txt"
    path.write_bytes(b"example=ex1\n# caf\xe9\n")
    assert main(["simulate", "--scenario", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {path}: 'utf-8' codec can't decode byte 0xe9")


def test_load_parses_bit_identical_to_python_float(tmp_path):
    rng = np.random.default_rng(11)
    n = 40
    values = rng.standard_normal((n, 4)) * 10.0 ** rng.integers(-300, 300, size=(n, 4))
    values[:, 1] = rng.random(n)  # t already on [0, 1], so it is not rescaled
    values[0, 0], values[1, 2], values[2, 3] = -0.0, 5e-324, 1.7976931348623157e308
    values[3, 2], values[4, 3] = -5e-324, -1.7976931348623157e308
    cells = [["%.17g" % v for v in row] for row in values]
    path = tmp_path / "precise.csv"
    _write_csv(path, ["y", "t", "a", "b"], cells)
    want = np.array([[float(c) for c in row] for row in cells])
    # Magnitudes this far apart are parsed exactly, and then rejected by the
    # dataset's scale check, so the cells are read as load_csv reads them.
    with open(path, newline="", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        got = data._parse_cells(fh, path, header)
    assert np.array_equal(got, want)
    np.testing.assert_array_equal(np.signbit(got), np.signbit(want))
    assert np.signbit(got[0, 0])
    with pytest.raises(DataError, match="the response has largest magnitude"):
        vf.load_csv(path, "y", "t")


def test_load_peak_memory_is_a_few_matrices(tmp_path):
    rng = np.random.default_rng(12)
    n, p = 400, 500
    values = rng.standard_normal((n, p + 2))
    values[:, 1] = rng.random(n)
    path = tmp_path / "wide.csv"
    _write_csv(path, ["y", "t", *(f"x{j}" for j in range(1, p + 1))], values.tolist())
    tracemalloc.start()
    try:
        ds = vf.load_csv(path, "y", "t")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * ds.x.nbytes, (peak, ds.x.nbytes)


_P_WIDE = 600


@pytest.mark.parametrize(
    "y_pos, t_pos, rescaled",
    [
        (0, 1, False),
        (1, 0, False),
        (_P_WIDE, _P_WIDE + 1, False),
        (_P_WIDE + 1, 0, False),
        (300, 301, False),
        (5, 450, False),
        (_P_WIDE + 1, _P_WIDE, False),
        (0, _P_WIDE + 1, False),
        (255, 257, False),
        (450, 5, True),
    ],
)
def test_load_builds_x_in_the_parsed_cells(tmp_path, y_pos, t_pos, rescaled):
    # p = 600 covariates move across more than one 256-column block
    # wherever y and t sit; the oracle gathers the columns afresh.
    rng = np.random.default_rng(y_pos * 1000 + t_pos)
    n, p = 400, _P_WIDE
    cells = rng.standard_normal((n, p + 2))
    cells[:, t_pos] = rng.random(n) * (7.0 if rescaled else 1.0) + (2.0 if rescaled else 0.0)
    cov = [c for c in range(p + 2) if c not in (y_pos, t_pos)]
    header = [f"c{c}" for c in range(p + 2)]
    header[y_pos], header[t_pos] = "y", "t"
    path = tmp_path / "placed.csv"
    np.savetxt(path, cells, fmt="%.17g", delimiter=",", header=",".join(header), comments="")

    tracemalloc.start()
    try:
        ds = vf.load_csv(path, "y", "t")
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()

    parsed = np.loadtxt(path, delimiter=",", skiprows=1)
    t_raw = parsed[:, t_pos]
    t_want = (t_raw - t_raw.min()) / (t_raw.max() - t_raw.min()) if rescaled else t_raw
    assert (ds.x == np.column_stack([np.ones(n), parsed[:, cov]])).all()
    assert (ds.x[:, 0] == 1.0).all()
    assert (ds.y == parsed[:, y_pos]).all()
    assert (ds.t == t_want).all()
    assert ds.rescale_map == ((t_raw.min(), t_raw.max()) if rescaled else (0.0, 1.0))
    assert ds.column_names == ("intercept", *(header[c] for c in cov))
    # One copy of the cells: gathering x next to them peaked near 3x and
    # held 2x.
    assert peak < 1.6 * ds.x.nbytes, (peak, ds.x.nbytes)
    assert held < 1.1 * ds.x.nbytes, (held, ds.x.nbytes)


def _rows_text(seed, n=40, t_col=1, t_range=(0.0, 1.0), eol="\n"):
    """``n`` rows of four 17-digit cells, each 96 bytes with a line feed."""
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((n, 4))
    rows[:, t_col] = t_range[0] + (t_range[1] - t_range[0]) * rng.random(n)
    return "".join(",".join(f"{v:+.16e}" for v in row) + eol for row in rows)


# Each case: file text, response column, index column.
_SPLIT_CASES = {
    "plain": ("y,t,a,b\n" + _rows_text(1), "y", "t"),
    "bom": ("\ufeffy,t,a,b\n" + _rows_text(2), "y", "t"),
    # Every name quoted, as R's write.csv writes a header.
    "quoted-header": ('"y","t","a","b"\n' + _rows_text(12), "y", "t"),
    "crlf": ("y,t,a,b\r\n" + _rows_text(3, eol="\r\n"), "y", "t"),
    # With two ranges the cut falls inside the block of blank lines.
    "blank-lines-at-cut": (
        "y,t,a,b\n" + _rows_text(4, n=20) + "\n" * 60 + _rows_text(5, n=20), "y", "t"
    ),
    "blank-lines-around": (
        "y,t,a,b\n\n\n" + _rows_text(6).replace("\n", "\n\n") + "\n\n", "y", "t"
    ),
    "no-trailing-newline": ("y,t,a,b\n" + _rows_text(7).rstrip("\n"), "y", "t"),
    "y-and-t-inside": ("a,y,t,b\n" + _rows_text(8, t_col=2), "y", "t"),
    "t-before-y": ("a,t,b,y\n" + _rows_text(9), "y", "t"),
    "rescaled-index": ("y,t,a,b\n" + _rows_text(10, t_range=(2.0, 9.0)), "y", "t"),
}


def _force_split(monkeypatch, cores):
    """Split every file into ``cores`` ranges; returns the list that counts
    this process's forks."""
    monkeypatch.setattr(data, "SPLIT_BYTES", 1)
    monkeypatch.setattr(data, "_usable_cores", lambda: cores)
    forks, fork = [], os.fork

    def counted_fork():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    return forks


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _assert_same_dataset(got, want):
    for name in ("y", "t", "x"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert got.column_names == want.column_names
    assert got.rescale_map == want.rescale_map


def _count_parses(monkeypatch):
    """The list that counts this process's own loadtxt parses; forked
    children count in their copy of it."""
    parses, loadtxt = [], data._loadtxt

    def counted(fh):
        parses.append(1)
        return loadtxt(fh)

    monkeypatch.setattr(data, "_loadtxt", counted)
    return parses


@pytest.mark.parametrize("cores", [2, 3])
@pytest.mark.parametrize("case", list(_SPLIT_CASES))
def test_split_parse_equals_one_process_parse(tmp_path, monkeypatch, case, cores):
    text, y_column, t_column = _SPLIT_CASES[case]
    path = tmp_path / "split.csv"
    path.write_bytes(text.encode("utf-8"))
    one = vf.load_csv(path, y_column, t_column)
    forks = _force_split(monkeypatch, cores)
    parses = _count_parses(monkeypatch)
    split = vf.load_csv(path, y_column, t_column)
    _assert_no_child_left()
    assert len(forks) == cores and not parses
    _assert_same_dataset(split, one)
    if case == "rescaled-index":
        assert split.rescale_map != (0.0, 1.0)


_LAST_ROW = "+1.5e+00,+2.5e-01,+3.5e+00,+4.5e+00\n"


@pytest.mark.parametrize(
    "last_row",
    [
        pytest.param(_LAST_ROW.replace("+3.5e+00", "oops"), id="bad-cell"),
        pytest.param(_LAST_ROW.replace(",+4.5e+00", ""), id="short-row"),
        pytest.param(_LAST_ROW.replace("\n", ",7\n"), id="wide-row"),
        pytest.param(_LAST_ROW.replace("+3.5e+00", "nan"), id="nan-cell"),
        pytest.param(_LAST_ROW.replace("+3.5e+00", '"3.5"'), id="quoted-cell"),
    ],
)
@pytest.mark.parametrize("cores", [2, 3])
@pytest.mark.parametrize("alone", [False, True], ids=["rows-before", "alone"])
def test_split_parse_keeps_the_one_process_errors(tmp_path, monkeypatch, last_row, cores, alone):
    # The row sits in the last range, after other rows or alone in it (a
    # short or wide row's width then reaches the parent instead of a loadtxt
    # error); with three ranges the middle one holds blank lines only.
    body = _rows_text(11, n=4) + "\n" * 3000 if alone else _rows_text(11)
    path = tmp_path / "late.csv"
    path.write_bytes(("y,t,a,b\n" + body + last_row).encode("utf-8"))
    try:
        want = vf.load_csv(path, "y", "t")
    except DataError as exc:
        want = str(exc)
    forks = _force_split(monkeypatch, cores)
    parses = _count_parses(monkeypatch)
    try:
        got = vf.load_csv(path, "y", "t")
    except DataError as exc:
        got = str(exc)
    _assert_no_child_left()
    assert len(forks) == cores
    # A NaN passes the children and is found after the split parse; every
    # other row sends the file to the one-process parse.
    assert len(parses) == (0 if "nan" in last_row else 1)
    if isinstance(want, str):
        assert got == want
    else:
        # Only the quoted cell loads: a child finds the quote.
        _assert_same_dataset(got, want)


def test_split_parse_falls_back_on_a_quoted_header(tmp_path, monkeypatch):
    # A quoted name holds a line feed, so the header's first line alone does
    # not read as the header. When the name ends the header and the line
    # feed ends the name, the line's stripped fields do, unless an unclosed
    # quote counts as an error.
    path = tmp_path / "quoted.csv"
    for header in ('y,t,"a\nb",c\n', 'y,t,c,"a\n"\n'):
        path.write_bytes((header + _rows_text(12)).encode("utf-8"))
        want = vf.load_csv(path, "y", "t")
        with monkeypatch.context() as patch:
            forks = _force_split(patch, 2)
            parses = _count_parses(patch)
            _assert_same_dataset(vf.load_csv(path, "y", "t"), want)
        assert not forks and len(parses) == 1


@pytest.mark.parametrize("fails_at", [1, 2, 3])
def test_split_parse_falls_back_when_fork_fails(tmp_path, monkeypatch, fails_at):
    # A fork after the first fails: the children already forked are reaped.
    path = tmp_path / "fork.csv"
    path.write_bytes(("y,t,a,b\n" + _rows_text(13)).encode("utf-8"))
    want = vf.load_csv(path, "y", "t")
    forks = _force_split(monkeypatch, 3)
    fork = os.fork

    def failing_fork():
        if len(forks) == fails_at - 1:
            raise BlockingIOError(11, "Resource temporarily unavailable")
        return fork()

    monkeypatch.setattr(os, "fork", failing_fork)
    parses = _count_parses(monkeypatch)
    got = vf.load_csv(path, "y", "t")
    _assert_no_child_left()
    assert len(forks) == fails_at - 1 and len(parses) == 1
    _assert_same_dataset(got, want)


def test_split_parse_falls_back_when_shared_memory_fails(tmp_path, monkeypatch):
    path = tmp_path / "mmap.csv"
    path.write_bytes(("y,t,a,b\n" + _rows_text(16)).encode("utf-8"))
    want = vf.load_csv(path, "y", "t")
    forks = _force_split(monkeypatch, 2)

    def no_memory(*args):
        raise OSError(12, "Cannot allocate memory")

    monkeypatch.setattr(data.mmap, "mmap", no_memory)
    _assert_same_dataset(vf.load_csv(path, "y", "t"), want)
    assert not forks


def test_split_parse_does_not_fork_beside_another_thread(tmp_path, monkeypatch):
    path = tmp_path / "threads.csv"
    path.write_bytes(("y,t,a,b\n" + _rows_text(14)).encode("utf-8"))
    want = vf.load_csv(path, "y", "t")
    _force_split(monkeypatch, 2)

    def no_fork():
        raise AssertionError("os.fork called while another thread runs")

    monkeypatch.setattr(os, "fork", no_fork)
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(10,))
    other.start()
    try:
        got = vf.load_csv(path, "y", "t")
    finally:
        release.set()
        other.join(10)
    assert not other.is_alive()
    _assert_no_child_left()
    _assert_same_dataset(got, want)


def test_load_reads_a_fifo_in_one_process(tmp_path, monkeypatch):
    path = tmp_path / "rows.csv"
    path.write_bytes(("y,t,a,b\n" + _rows_text(15)).encode("utf-8"))
    want = vf.load_csv(path, "y", "t")
    fifo = tmp_path / "rows.fifo"
    os.mkfifo(fifo)
    forks = _force_split(monkeypatch, 2)
    copy = "import shutil, sys; shutil.copyfileobj(open(sys.argv[1], 'rb'), open(sys.argv[2], 'wb'))"
    writer = subprocess.Popen([sys.executable, "-c", copy, str(path), str(fifo)])
    try:
        got = vf.load_csv(fifo, "y", "t")
    finally:
        assert writer.wait(timeout=30) == 0
    _assert_no_child_left()
    assert not forks
    _assert_same_dataset(got, want)


def _small_fit():
    rng = np.random.default_rng(3)
    basis = vf.build_basis(5, 3)
    n = 40
    t = rng.random(n)
    x = np.column_stack([np.ones(n), rng.standard_normal((n, 2))])
    y = 1.5 * x[:, 1] + rng.standard_normal(n)
    ds = vf.from_arrays(y, t, x[:, 1:], names=["a", "b"])
    trace = vf.run_forward(ds, basis, vf.EbicConfig(eta=0.0, patience=2))
    bmat = vf.basis_matrix(basis, t)
    blocks = [vf.DesignBlock(j, bmat * ds.x[:, j : j + 1]) for j in trace.final_set]
    fit = vf.fit_full(vf.build_projection_cache(blocks, y), y)
    return ds, basis, trace, fit


def test_report_round_trip_and_key_layout(tmp_path):
    ds, basis, trace, fit = _small_fit()
    grid = curve_grid()
    curves = selection_curves(fit, basis, ds.column_names, grid)
    report = build_selection_report(
        config={"command": "select"},
        dataset_info={"n": ds.n, "p": ds.p},
        trace=trace,
        final_names=[ds.column_names[j] for j in trace.final_set],
        curves=curves,
        grid=grid,
        warnings=[],
        timestamp=None,
    )
    assert report["schema"] == 1
    assert len(report["sigma_sq_path"]) == len(trace.steps) + 1
    assert len(report["ebic_path"]) == len(report["sigma_sq_path"])
    for values in report["curves"].values():
        assert len(values) == 101
    path = tmp_path / "report.json"
    write_report(report, path)
    loaded = json.loads(path.read_text(encoding="utf-8"))
    assert loaded == json.loads(json.dumps(report))
    assert list(loaded) == list(report)


def test_curves_file_matches_coefficient_curves(tmp_path):
    ds, basis, trace, fit = _small_fit()
    grid = curve_grid()
    curves = selection_curves(fit, basis, ds.column_names, grid)
    path = tmp_path / "curves.csv"
    write_curves(curves, grid, path)
    lines = path.read_text(encoding="utf-8").strip().split("\n")
    header = lines[0].split(",")
    assert header[0] == "t"
    assert len(lines) == 102
    assert lines[1].split(",")[0] == "0.00"
    assert lines[-1].split(",")[0] == "1.00"
    # Values must round-trip to the coefficient_curve output exactly.
    for col, name in enumerate(header[1:], start=1):
        j = ds.column_names.index(name)
        want = vf.coefficient_curve(fit, basis, j, grid)
        got = np.array([float(line.split(",")[col]) for line in lines[1:]])
        np.testing.assert_array_equal(got, want)


def test_curves_intercept_only_selection(tmp_path):
    rng = np.random.default_rng(8)
    basis = vf.build_basis(5, 3)
    n = 60
    ds = vf.from_arrays(rng.standard_normal(n), rng.random(n), rng.standard_normal((n, 3)))
    trace = vf.run_forward(ds, basis, vf.EbicConfig(eta=0.0, patience=2))
    assert trace.final_set == (0,)
    bmat = vf.basis_matrix(basis, ds.t)
    fit = vf.fit_full(vf.build_projection_cache([vf.DesignBlock(0, bmat)], ds.y), ds.y)
    grid = curve_grid()
    curves = selection_curves(fit, basis, ds.column_names, grid)
    path = tmp_path / "c.csv"
    write_curves(curves, grid, path)
    header = path.read_text(encoding="utf-8").split("\n", 1)[0]
    assert header == "t,intercept"


def test_write_curves_rejects_length_mismatch(tmp_path):
    with pytest.raises(ValueError):
        write_curves({"a": [1.0, 2.0]}, curve_grid(), tmp_path / "x.csv")
