"""Command-line interface tests (run in-process through main)."""

import json
import math

import numpy as np
import pytest

import vcforward as vf
from vcforward.cli import main


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
    assert main(["basis-check", "--L", "3", "--order", "4"]) == 1
    assert "usage error" in capsys.readouterr().err


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
