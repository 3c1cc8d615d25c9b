"""Command-line interface tests (run in-process through main)."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import vcforward as vf
from vcforward import cli
from vcforward.cli import main

from oracles import lstsq_sigma_sq


def _noise_csv(path, seed=0, n=120, p=5):
    rng = np.random.default_rng(seed)
    t = rng.random(n)
    x = rng.standard_normal((n, p))
    y = rng.standard_normal(n)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("y,t," + ",".join(f"x{j}" for j in range(1, p + 1)) + "\n")
        for i in range(n):
            cells = [repr(float(y[i])), repr(float(t[i]))] + [
                repr(float(v)) for v in x[i]
            ]
            fh.write(",".join(cells) + "\n")
    return path


def test_select_on_noise_keeps_intercept(tmp_path, capsys):
    data = _noise_csv(tmp_path / "noise.csv", seed=5)
    out = tmp_path / "report.json"
    code = main(
        [
            "select",
            "--data", str(data),
            "--y-column", "y",
            "--t-column", "t",
            "--L", "5",
            "--out", str(out),
            "--no-timestamp",
        ]
    )
    assert code == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["selection"]["final_set"] == [0]
    assert report["selection"]["stop_reason"] in (
        "patience_exhausted",
        "candidates_exhausted",
    )
    assert "generated_at" not in report
    assert "selected 1 covariates" in capsys.readouterr().out


def test_select_auto_eta_echoed(tmp_path):
    data = _noise_csv(tmp_path / "n.csv", seed=1, n=400, p=40)
    out = tmp_path / "r.json"
    code = main(
        [
            "select",
            "--data", str(data),
            "--y-column", "y",
            "--t-column", "t",
            "--L", "5",
            "--eta-rule", "auto",
            "--out", str(out),
            "--no-timestamp",
        ]
    )
    assert code == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    want = 1.0 - math.log(400) / (3.0 * math.log(40))
    assert report["selection"]["eta"] == pytest.approx(want, rel=1e-12)


def test_select_eta_conflict_is_usage_error(tmp_path, capsys):
    data = _noise_csv(tmp_path / "n2.csv")
    code = main(
        [
            "select",
            "--data", str(data),
            "--y-column", "y",
            "--t-column", "t",
            "--eta-rule", "auto",
            "--eta", "0.5",
        ]
    )
    assert code == 1
    assert "usage error" in capsys.readouterr().err


@pytest.mark.parametrize("initial", ["", ","])
def test_select_initial_naming_no_covariate_is_usage_error(tmp_path, capsys, initial):
    # An empty list is not the empty model: that takes "empty".
    data = _noise_csv(tmp_path / "noise.csv")
    out = tmp_path / "report.json"
    argv = ["select", "--data", str(data), "--y-column", "y", "--t-column", "t"]
    assert main(argv + ["--initial", initial, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "usage error" in err and "empty" in err
    assert not out.exists()


def test_select_missing_file_is_data_error(tmp_path, capsys):
    code = main(
        ["select", "--data", str(tmp_path / "absent.csv"), "--y-column", "y", "--t-column", "t"]
    )
    assert code == 2
    assert "data error" in capsys.readouterr().err


def test_select_too_few_rows_is_data_error(tmp_path):
    data = _noise_csv(tmp_path / "small.csv", n=8)
    assert main(
        ["select", "--data", str(data), "--y-column", "y", "--t-column", "t", "--L", "7"]
    ) == 2


def test_select_rank_deficient_initial_set_is_numerical_error(tmp_path, capsys):
    rng = np.random.default_rng(3)
    n = 60
    a = rng.standard_normal(n)
    cols = {"y": rng.standard_normal(n), "t": rng.random(n), "a": a, "b": a.copy()}
    data = tmp_path / "twins.csv"
    with open(data, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(cols) + "\n")
        for i in range(n):
            fh.write(",".join(repr(float(v[i])) for v in cols.values()) + "\n")
    out = tmp_path / "report.json"
    code = main(
        [
            "select",
            "--data", str(data),
            "--y-column", "y",
            "--t-column", "t",
            "--initial", "intercept,a,b",
            "--out", str(out),
        ]
    )
    assert code == 3
    assert "numerical error" in capsys.readouterr().err
    assert not out.exists()


def test_select_collinear_initial_covariate_is_named(tmp_path, capsys):
    rng = np.random.default_rng(3)
    n = 60
    a = rng.standard_normal(n)
    cols = {"y": rng.standard_normal(n), "t": rng.random(n), "a": a, "b": a.copy()}
    data = tmp_path / "twins.csv"
    with open(data, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(cols) + "\n")
        for i in range(n):
            fh.write(",".join(repr(float(v[i])) for v in cols.values()) + "\n")
    code = main(
        [
            "select",
            "--data", str(data),
            "--y-column", "y",
            "--t-column", "t",
            "--initial", "intercept,a,b",
        ]
    )
    assert code == 3
    err = capsys.readouterr().err
    assert "numerical error: initial covariate 'b' " in err


def test_select_index_in_one_knot_span_gives_one_message_with_and_without_screen(
    tmp_path, capsys
):
    # Every t lies in the first of the L=7 basis's knot spans, so the
    # intercept's block spans only the few basis functions alive there.
    rng = np.random.default_rng(6)
    n = 40
    cols = np.column_stack(
        [rng.standard_normal(n), 0.10 + 0.02 * rng.random(n), rng.standard_normal((n, 3))]
    )
    data = tmp_path / "span.csv"
    with open(data, "w", encoding="utf-8", newline="") as fh:
        fh.write("y,t,a,b,c\n")
        np.savetxt(fh, cols, fmt="%.17g", delimiter=",")
    errs = []
    for screen in ([], ["--screen-k", "1"]):
        code = main(
            [
                "select",
                "--data", str(data),
                "--y-column", "y",
                "--t-column", "t",
                "--L", "7",
                "--out", str(tmp_path / "report.json"),
                *screen,
            ]
        )
        assert code == 3
        errs.append(capsys.readouterr().err)
    assert "'intercept'" in errs[0] and "rank deficient on its own" in errs[0]
    assert errs[0] == errs[1]


def test_select_later_initial_block_rank_deficient_on_its_own(tmp_path, capsys):
    # a is zero wherever t >= 0.2, so its block spans only the few basis
    # functions alive there: it fails the rank rule alone, after the
    # intercept as well as first.
    rng = np.random.default_rng(8)
    n = 60
    t = rng.random(n)
    a = np.where(t < 0.2, rng.standard_normal(n), 0.0)
    cols = np.column_stack([rng.standard_normal(n), t, a, rng.standard_normal(n)])
    data = tmp_path / "early.csv"
    with open(data, "w", encoding="utf-8", newline="") as fh:
        fh.write("y,t,a,b\n")
        np.savetxt(fh, cols, fmt="%.17g", delimiter=",")
    errs = []
    for initial in ("a", "intercept,a"):
        code = main(
            [
                "select",
                "--data", str(data),
                "--y-column", "y",
                "--t-column", "t",
                "--initial", initial,
                "--out", str(tmp_path / "report.json"),
            ]
        )
        assert code == 3
        errs.append(capsys.readouterr().err)
    assert "initial covariate 'a': its spline block is rank deficient on its own" in errs[0]
    assert errs[1] == errs[0]


def test_select_report_bytes_deterministic(tmp_path):
    data = _noise_csv(tmp_path / "d.csv", seed=9)
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    for out in (out1, out2):
        assert main(
            [
                "select",
                "--data", str(data),
                "--y-column", "y",
                "--t-column", "t",
                "--L", "5",
                "--out", str(out),
                "--no-timestamp",
            ]
        ) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_select_with_screen_and_curves(tmp_path):
    rng = np.random.default_rng(12)
    n = 200
    t = rng.random(n)
    x = rng.standard_normal((n, 10))
    y = 2.0 * x[:, 2] * (1.0 + t) + 0.5 * rng.standard_normal(n)
    data = tmp_path / "sig.csv"
    with open(data, "w", encoding="utf-8", newline="") as fh:
        fh.write("y,t," + ",".join(f"x{j}" for j in range(1, 11)) + "\n")
        for i in range(n):
            fh.write(
                ",".join([repr(float(y[i])), repr(float(t[i]))] + [repr(float(v)) for v in x[i]])
                + "\n"
            )
    out = tmp_path / "rep.json"
    curves = tmp_path / "curves.csv"
    code = main(
        [
            "select",
            "--data", str(data),
            "--y-column", "y",
            "--t-column", "t",
            "--L", "5",
            "--screen-k", "5",
            "--out", str(out),
            "--curves-out", str(curves),
            "--no-timestamp",
        ]
    )
    assert code == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    assert "x3" in report["selection"]["final_names"]
    header = curves.read_text(encoding="utf-8").split("\n", 1)[0].split(",")
    assert header[0] == "t" and "x3" in header


def test_simulate_single_rep_aggregate_equals_rep(tmp_path):
    out = tmp_path / "agg.json"
    per = tmp_path / "reps.csv"
    code = main(
        [
            "simulate",
            "--example", "ex1",
            "--n", "200",
            "--p", "30",
            "--reps", "1",
            "--seed", "4",
            "--out", str(out),
            "--per-rep-out", str(per),
            "--no-timestamp",
        ]
    )
    assert code == 0
    agg = json.loads(out.read_text(encoding="utf-8"))["metrics"]
    line = per.read_text(encoding="utf-8").strip().split("\n")[1].split(",")
    assert agg["mean_tp"] == float(line[1])
    assert agg["mean_fp"] == float(line[2])
    assert agg["mean_pe"] == float(line[3])
    assert agg["rsd_pe"] == 0.0


def test_simulate_scenario_file_and_flag_override(tmp_path):
    scen = tmp_path / "scenario.txt"
    scen.write_text(
        "# benchmark config\nexample=ex1\nn=200\np=30\nreps=2\nseed=3\nL=5\n",
        encoding="utf-8",
    )
    out = tmp_path / "agg.json"
    code = main(
        ["simulate", "--scenario", str(scen), "--reps", "1", "--out", str(out), "--no-timestamp"]
    )
    assert code == 0
    blob = json.loads(out.read_text(encoding="utf-8"))
    assert blob["scenario"]["reps"] == 1  # flag wins over file
    assert blob["scenario"]["n"] == 200
    assert blob["settings"]["L"] == 5


def test_simulate_unknown_scenario_key_lists_valid(tmp_path, capsys):
    scen = tmp_path / "bad.txt"
    scen.write_text("example=ex1\nbogus=3\n", encoding="utf-8")
    assert main(["simulate", "--scenario", str(scen)]) == 1
    err = capsys.readouterr().err
    assert "bogus" in err and "valid keys" in err and "screen_k" in err


def test_simulate_requires_example(capsys):
    assert main(["simulate", "--n", "100"]) == 1
    assert "example" in capsys.readouterr().err


def test_simulate_rejects_snr_samples_before_any_rep(tmp_path, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(cli, "_rep_task", calls.append)
    out = tmp_path / "agg.json"
    args = ["simulate", "--example", "ex1", "--reps", "20", "--snr-samples", "5"]
    assert main(args + ["--out", str(out)]) == 1
    assert "usage error" in capsys.readouterr().err
    assert calls == [] and not out.exists()


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_simulate_rejects_workers_below_one_before_any_rep(
    tmp_path, monkeypatch, capsys, workers
):
    calls = []
    monkeypatch.setattr(cli, "_rep_task", calls.append)
    out = tmp_path / "agg.json"
    args = ["simulate", "--example", "ex1", "--p", "50", "--reps", "2", "--workers", workers]
    assert main(args + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "usage error" in err and "--workers" in err
    assert calls == [] and not out.exists()


def test_negative_screen_k_is_usage_error(tmp_path, monkeypatch, capsys):
    # From a flag for either command, or from a scenario file; 0 stays off.
    calls = []
    monkeypatch.setattr(cli, "_rep_task", calls.append)
    data = _noise_csv(tmp_path / "noise.csv")
    scen = tmp_path / "scenario.txt"
    scen.write_text("example=ex1\np=50\nreps=2\nscreen_k=-5\n", encoding="utf-8")
    out = tmp_path / "out.json"
    select = ["select", "--data", str(data), "--y-column", "y", "--t-column", "t"]
    for args in (
        select + ["--screen-k", "-5"],
        ["simulate", "--example", "ex1", "--p", "50", "--reps", "2", "--screen-k", "-5"],
        ["simulate", "--scenario", str(scen)],
    ):
        assert main(args + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "usage error" in err and "screen_k" in err and "-5" in err
    assert calls == [] and not out.exists()
    assert main(select + ["--L", "5", "--screen-k", "0", "--out", str(out)]) == 0


def test_simulate_worker_counts_agree(tmp_path):
    outs = []
    for workers, tag in ((1, "a"), (2, "b")):
        out = tmp_path / f"agg_{tag}.json"
        per = tmp_path / f"reps_{tag}.csv"
        assert main(
            [
                "simulate",
                "--example", "ex1",
                "--n", "200",
                "--p", "40",
                "--reps", "4",
                "--seed", "11",
                "--workers", str(workers),
                "--out", str(out),
                "--per-rep-out", str(per),
                "--no-timestamp",
            ]
        ) == 0
        outs.append(per.read_bytes())
    assert outs[0] == outs[1]


def test_basis_check_reports_diagnostics(capsys):
    assert main(["basis-check", "--L", "7", "--order", "4", "--points", "500"]) == 0
    out = capsys.readouterr().out
    assert "dim=7" in out and "max |sum - 1|" in out


def test_basis_check_invalid_config(capsys):
    for flags in (["--L", "3", "--order", "4"], ["--points", "0"], ["--points", "-5"]):
        assert main(["basis-check", *flags]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("usage error: ")


def test_unknown_flag_is_usage_error(capsys):
    assert main(["select", "--nope"]) == 1


def _named_csv(path, names, seed=0, n=40):
    rng = np.random.default_rng(seed)
    cols = {name: rng.standard_normal(n) for name in dict.fromkeys(names)}
    cols["time"] = rng.random(n)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(names) + "\n")
        for i in range(n):
            fh.write(",".join(repr(float(cols[name][i])) for name in names) + "\n")
    return path


@pytest.mark.parametrize(
    "names,bad",
    [
        (["y", "time", "t", "x1"], "'t'"),
        (["y", "time", "a", "x1", "a"], "'a'"),
        (["y", "time", "intercept", "x1"], "'intercept'"),
    ],
    ids=["grid-name", "duplicate", "intercept-name"],
)
def test_select_rejects_clashing_column_names(tmp_path, capsys, names, bad):
    data = _named_csv(tmp_path / "clash.csv", names)
    out = tmp_path / "r.json"
    code = main(
        [
            "select",
            "--data", str(data),
            "--y-column", "y",
            "--t-column", "time",
            "--L", "5",
            "--out", str(out),
        ]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert bad in err and str(data) in err
    assert not out.exists()


def test_select_excludes_constant_columns_and_reports_them(tmp_path, capsys):
    # Covariates: c_first (constant), x1 (signal), zeros (0.0 and -0.0
    # mixed, so constant), x2, c_last (constant).
    rng = np.random.default_rng(17)
    n = 120
    t = rng.random(n)
    x1, x2 = rng.standard_normal(n), rng.standard_normal(n)
    zeros = np.where(rng.random(n) < 0.5, 0.0, -0.0)
    cov = np.column_stack([np.full(n, 3.5), x1, zeros, x2, np.full(n, -1.25)])
    y = 3.0 * x1 * (1.0 + t) + 0.5 * rng.standard_normal(n)
    names = ["c_first", "x1", "zeros", "x2", "c_last"]
    data = tmp_path / "const.csv"
    with open(data, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(["y", "t", *names]) + "\n")
        for i in range(n):
            cells = [y[i], t[i], *cov[i]]
            fh.write(",".join(repr(float(v)) for v in cells) + "\n")
    assert "-0.0" in data.read_text() and ",0.0," in data.read_text()
    out = tmp_path / "r.json"
    code = main(
        ["select", "--data", str(data), "--y-column", "y", "--t-column", "t",
         "--L", "5", "--no-timestamp", "--out", str(out)]
    )
    assert code == 0, capsys.readouterr().err
    report = json.loads(out.read_text())
    constant = report["dataset"]["constant_columns"]
    assert constant == [1, 3, 5]
    assert all(type(j) is int for j in constant)
    for name in ("c_first", "zeros", "c_last"):
        assert f"constant covariate {name!r} excluded from candidates" in report["warnings"]
    assert not set(constant) & set(report["selection"]["final_set"])
    assert 2 in report["selection"]["final_set"]
    assert vf.from_arrays(y, t, cov, names=names).constant_columns == (1, 3, 5)


def test_select_with_n_just_above_the_coefficient_count(tmp_path, capsys):
    # n = 36 rows, one more than the dim * (k + 1) = 35 coefficients of the
    # intercept and four covariates at L = 7. Expected: a result (exit 0)
    # whatever --max-steps asks, capped at n // dim - 1 = 4 accepted steps,
    # whose variance path is the least-squares one at every prefix.
    rng = np.random.default_rng(61)
    n, p = 36, 10
    t = rng.random(n)
    x = rng.standard_normal((n, p))
    y = 2.0 * x[:, 0] + 3.0 * t * x[:, 1] + (t + 1.0) ** 2 * x[:, 2] + x[:, 3]
    y += 0.5 * rng.standard_normal(n)
    data = tmp_path / "tight.csv"
    with open(data, "w", encoding="utf-8") as fh:
        fh.write("y,t," + ",".join(f"x{j}" for j in range(1, p + 1)) + "\n")
        np.savetxt(fh, np.column_stack([y, t, x]), fmt="%.17g", delimiter=",")
    ds = vf.load_csv(data, "y", "t")
    bmat = vf.basis_matrix(vf.build_basis(7, 4), ds.t)
    out = tmp_path / "r.json"
    for max_steps in ("4", "40"):
        code = main(
            [
                "select", "--data", str(data), "--y-column", "y", "--t-column", "t",
                "--max-steps", max_steps, "--out", str(out), "--no-timestamp",
            ]
        )
        assert code == 0, capsys.readouterr().err
        sel = json.loads(out.read_text(encoding="utf-8"))["selection"]
        assert sel["stop_reason"] == "max_steps"
        assert len(sel["steps"]) == 4 and len(sel["final_set"]) == 5
        path = [0] + [s["index"] for s in sel["steps"]]
        sigmas = [s["sigma_sq"] for s in sel["steps"]]
        for k, sigma in enumerate(sigmas, start=2):
            blocks = [vf.DesignBlock(j, bmat * ds.x[:, j : j + 1]) for j in path[:k]]
            assert sigma == pytest.approx(lstsq_sigma_sq(blocks, ds.y), rel=1e-8)
        assert sigmas[-1] > 0.0


def test_simulate_screen_smaller_than_the_support(tmp_path):
    # --screen-k 2 keeps two of ex1's four true covariates. Expected: a
    # result (exit 0) in which every rep accepts both screened covariates,
    # runs out of candidates and so has TP 2 at most, here exactly 2.
    out, per = tmp_path / "agg.json", tmp_path / "reps.csv"
    code = main(
        [
            "simulate", "--example", "ex1", "--p", "200", "--reps", "4", "--seed", "7",
            "--screen-k", "2", "--out", str(out), "--per-rep-out", str(per),
            "--no-timestamp",
        ]
    )
    assert code == 0
    rows = per.read_text(encoding="utf-8").strip().split("\n")[1:]
    assert len(rows) == 4
    for row in rows:
        _, tp, fp, _, size, _, stop = row.split(",")
        assert (tp, fp, size, stop) == ("2", "0", "3", "candidates_exhausted")
    metrics = json.loads(out.read_text(encoding="utf-8"))["metrics"]
    assert (metrics["mean_tp"], metrics["mean_size"]) == (2.0, 3.0)


@pytest.mark.parametrize(
    "law",
    [
        lambda rng, n: rng.choice([0.1, 0.5, 0.9], size=n),
        lambda rng, n: 0.5 + 1e-6 * rng.standard_normal(n),
    ],
    ids=["three-values", "clustered"],
)
def test_select_on_tied_or_clustered_index_values(tmp_path, capsys, law):
    # Index values with three distinct values, or all within 1e-5 of 0.5
    # (inside [0, 1], so not rescaled): every spline block spans at most
    # three basis functions of the L=7 basis. Expected: the default initial
    # set is a numerical error (exit 3); an empty initial set is a result
    # (exit 0) with no covariate, since every candidate is degenerate, and
    # its report and (grid-only) curves file are written.
    rng = np.random.default_rng(71)
    n, p = 200, 5
    t = law(rng, n)
    x = rng.standard_normal((n, p))
    y = 2.0 * x[:, 0] + rng.standard_normal(n)
    data = tmp_path / "tied.csv"
    with open(data, "w", encoding="utf-8") as fh:
        fh.write("y,t," + ",".join(f"x{j}" for j in range(1, p + 1)) + "\n")
        np.savetxt(fh, np.column_stack([y, t, x]), fmt="%.17g", delimiter=",")
    out, curves = tmp_path / "r.json", tmp_path / "c.csv"
    argv = ["select", "--data", str(data), "--y-column", "y", "--t-column", "t",
            "--out", str(out), "--curves-out", str(curves), "--no-timestamp"]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert "initial covariate 'intercept': its spline block is rank deficient on its own" in err
    assert not out.exists()
    for criterion in ("argmin-sigma", "argmax-corr"):
        code = main([*argv, "--initial", "empty", "--criterion", criterion])
        assert code == 0, capsys.readouterr().err
        report = json.loads(out.read_text(encoding="utf-8"))
        assert report["selection"]["final_set"] == [] and report["selection"]["steps"] == []
        assert report["selection"]["stop_reason"] == "candidates_exhausted"
        assert report["dataset"]["rescale_map"] == [0.0, 1.0]
        assert list(report["curves"]) == ["t"]
        rows = curves.read_text(encoding="utf-8").splitlines()
        assert rows[0] == "t" and len(rows) == 102
        assert "selected 0 covariates" in capsys.readouterr().out
        out.unlink()
        curves.unlink()


def test_cli_process_loads_no_scipy_and_one_openblas(tmp_path):
    # A fresh interpreter that runs a tiny simulate in-process must load
    # numpy's BLAS/LAPACK only (numpy's wheels bundle OpenBLAS): a second
    # library, such as scipy's own OpenBLAS, brings its own thread pool and
    # about 27 MB of resident memory.
    script = """
import json, os, sys
from vcforward.cli import main

code = main(["simulate", "--example", "ex1", "--p", "50", "--reps", "2",
             "--out", sys.argv[1], "--no-timestamp"])
libs = None
if os.path.exists("/proc/self/maps"):
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
print(json.dumps({
    "code": code,
    "scipy": sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")),
    "libs": libs,
}))
"""
    src = str(Path(vf.__file__).resolve().parents[1])
    path = [src, os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    done = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "agg.json")],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    facts = json.loads(done.stdout.strip().splitlines()[-1])
    assert facts["code"] == 0
    assert facts["scipy"] == []
    if facts["libs"] is not None:
        assert len(facts["libs"]) == 1, facts["libs"]
