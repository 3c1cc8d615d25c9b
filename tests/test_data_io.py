"""CSV ingestion, dataset invariants, and report/curve writers."""

import json

import numpy as np
import pytest

import vcforward as vf
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
    [(["a", "t"], "'t'"), (["a", "a"], "'a'"), (["intercept", "a"], "'intercept'")],
    ids=["grid-name", "duplicate", "intercept-name"],
)
def test_from_arrays_rejects_clashing_column_names(names, bad):
    rng = np.random.default_rng(4)
    with pytest.raises(DataError, match=bad):
        vf.from_arrays(rng.standard_normal(10), rng.random(10), rng.standard_normal((10, 2)), names)


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
        metrics=None,
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
