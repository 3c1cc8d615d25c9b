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

    # With one covariate the penalty 2 eta log p is 0 for every eta: auto
    # gives eta 0 and selects as the BIC does.
    rng = np.random.default_rng(4)
    t, x = rng.random(100), rng.standard_normal(100)
    one = _cells_csv(tmp_path / "one.csv", ["y", "t", "a"], [x * (1.0 + t) + rng.standard_normal(100), t, x])
    select = ["select", "--data", str(one), "--y-column", "y", "--t-column", "t", "--L", "5", "--no-timestamp"]
    reports = []
    for rule in ("auto", "explicit"):
        assert main(select + ["--eta-rule", rule, "--out", str(out)]) == 0
        reports.append(json.loads(out.read_text(encoding="utf-8")))
    auto, bic = reports
    assert auto["config"]["eta"] == 0.0 and auto["warnings"] == []
    assert auto["selection"] == bic["selection"]
    assert auto["selection"]["final_names"] == ["intercept", "a"]


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


@pytest.mark.parametrize("initial", ["99999", "-1", "intercept,6"])
def test_select_initial_index_out_of_range_is_usage_error(tmp_path, capsys, initial):
    # Like an unknown name: an integer outside [0, p] (p = 5) is named, and
    # no report is written.
    data = _noise_csv(tmp_path / "noise.csv")
    out = tmp_path / "report.json"
    argv = ["select", "--data", str(data), "--y-column", "y", "--t-column", "t"]
    assert main(argv + [f"--initial={initial}", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "usage error" in err and repr(initial.split(",")[-1]) in err
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


def _cells_csv(path, names, columns):
    cells = np.column_stack(columns)
    np.savetxt(path, cells, fmt="%.17g", delimiter=",", header=",".join(names), comments="")
    return path


def test_select_screen_keeps_the_intercept_a_candidate(tmp_path, capsys):
    # The screen ranks covariates only; from the empty model the intercept
    # must stay in the pool, with or without a screen.
    rng = np.random.default_rng(8)
    n = 300
    t = rng.random(n)
    x = rng.standard_normal((n, 5))
    y = 5.0 + 2.0 * x[:, 0] + rng.standard_normal(n)
    names = ["y", "t", *(f"x{j}" for j in range(1, 6))]
    data = _cells_csv(tmp_path / "icpt.csv", names, [y, t, x])
    out = tmp_path / "r.json"
    select = ["select", "--data", str(data), "--y-column", "y", "--t-column", "t", "--L", "5",
              "--initial", "empty", "--no-timestamp", "--out", str(out)]
    for screen in ([], ["--screen-k", "3"]):
        assert main(select + screen) == 0, capsys.readouterr().err
        report = json.loads(out.read_text(encoding="utf-8"))
        assert sorted(report["selection"]["final_names"]) == ["intercept", "x1"], screen


def test_select_reports_rescaled_index_and_clamped_auto_eta(tmp_path, capsys):
    rng = np.random.default_rng(9)
    n = 40
    t = 10.0 + 10.0 * rng.random(n)
    t[:2] = 10.0, 20.0
    x = rng.standard_normal((n, 2))
    y = x[:, 0] + rng.standard_normal(n)
    data = _cells_csv(tmp_path / "w.csv", ["y", "t", "x1", "x2", "c"], [y, t, x, np.full(n, 2.5)])
    out = tmp_path / "r.json"
    code = main(["select", "--data", str(data), "--y-column", "y", "--t-column", "t",
                 "--L", "5", "--eta-rule", "auto", "--no-timestamp", "--out", str(out)])
    assert code == 0, capsys.readouterr().err
    report = json.loads(out.read_text(encoding="utf-8"))
    # auto eta = 1 - log 40 / (3 log 3) = -0.1193 at p = 3. select warns of
    # the rescale and then gives the pass's warnings, which a library
    # caller reads off the trace.
    pass_warnings = ["constant covariate 'c' excluded from candidates", "auto eta -0.1193 clamped to 0"]
    assert report["warnings"] == ["index variable rescaled to [0, 1] from [10.0, 20.0]", *pass_warnings]
    assert report["dataset"]["rescale_map"] == [10.0, 20.0]
    assert report["selection"]["eta"] == 0.0
    trace = vf.run_forward(vf.load_csv(data, "y", "t"), vf.build_basis(5, 4), vf.EbicConfig(eta_rule="auto"))
    assert list(trace.warnings) == pass_warnings


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


@pytest.mark.parametrize(
    "text,message",
    [
        ("example=ex1\nn\n", "{path}:2: expected key=value, got 'n'"),
        # A value meets its flag's type and choices; the error names the file.
        ("example=ex1\nn=abc\n", "{path}: argument --n: invalid int value: 'abc'"),
        ("example=ex1\neta_rule=bogus\n", "{path}: argument --eta-rule: invalid choice: 'bogus'"),
        # There is one selection criterion: a criterion line, in either
        # spelling, is an unknown key.
        ("example=ex1\ncriterion=argmin-sigma\n", "{path}:2: unknown key 'criterion'"),
        ("example=ex1\ncriterion=argmin_sigma\n", "{path}:2: unknown key 'criterion'"),
    ],
    ids=["no-equals", "bad-value", "bad-choice", "bad-criterion", "underscore-criterion"],
)
def test_simulate_bad_scenario_file_is_usage_error(tmp_path, monkeypatch, capsys, text, message):
    calls = []
    monkeypatch.setattr(cli, "_rep_task", calls.append)
    scen = tmp_path / "scenario.txt"
    scen.write_text(text, encoding="utf-8")
    out = tmp_path / "agg.json"
    assert main(["simulate", "--scenario", str(scen), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "usage error" in err and message.format(path=scen) in err
    assert calls == [] and not out.exists()


def test_simulate_scenario_file_may_start_with_a_byte_order_mark(tmp_path):
    scen = tmp_path / "scenario.txt"
    scen.write_text("example=ex1\nn=120\np=20\nreps=1\n", encoding="utf-8-sig")
    out = tmp_path / "agg.json"
    args = ["simulate", "--scenario", str(scen), "--out", str(out)]
    assert main(args) == 0
    scenario = json.loads(out.read_text(encoding="utf-8"))["scenario"]
    assert scenario["example_id"] == "ex1" and scenario["n"] == 120


# key: (aggregate section, field, file value, flag value, echo of a value)
_SCENARIO_CASES = {
    "example": ("scenario", "example_id", "ex2", "ex1", str),
    "n": ("scenario", "n", "220", "240", int),
    "p": ("scenario", "p", "25", "30", int),
    "t1": ("scenario", "t1", "1.5", "2.0", float),
    "t2": ("scenario", "t2", "0.5", "1.0", float),
    "seed": ("scenario", "seed", "3", "4", int),
    "reps": ("scenario", "reps", "2", "1", int),
    "L": ("settings", "L", "5", "6", int),
    "order": ("settings", "order", "3", "2", int),
    "eta_rule": ("settings", "eta_rule", "auto", "explicit", str),
    "eta": ("settings", "eta", "0.5", "0.25", float),
    "patience": ("settings", "patience", "2", "3", int),
    "screen_k": ("settings", "screen_k", "10", "5", int),
}


@pytest.mark.parametrize("flag", [None, "before", "after"], ids=["file", "flag-before", "flag-after"])
@pytest.mark.parametrize("key", cli.SCENARIO_KEYS)
def test_every_scenario_key_reaches_the_aggregate_and_yields_to_its_flag(tmp_path, key, flag):
    section, field, file_value, flag_value, echo = _SCENARIO_CASES[key]
    scen = tmp_path / "scenario.txt"
    # The key's line comes last, so it overrides the base lines for n, p and reps.
    scen.write_text(f"example=ex1\nn=200\np=20\nreps=1\n{key}={file_value}\n", encoding="utf-8")
    out = tmp_path / "agg.json"
    given = [f"--{key.replace('_', '-')}", flag_value]
    scenario = ["--scenario", str(scen)]
    args = {None: scenario, "before": given + scenario, "after": scenario + given}[flag]
    tail = ["--out", str(out), "--no-timestamp"]
    assert main(["simulate", *args, *tail]) == 0
    blob = json.loads(out.read_text(encoding="utf-8"))
    assert blob[section][field] == echo(file_value if flag is None else flag_value)


def test_main_without_argv_reads_sys_argv_through_a_scenario_file(tmp_path, monkeypatch):
    # The console script calls main() with no argv; the file's flags must
    # still go ahead of the command line's.
    scen = tmp_path / "scenario.txt"
    scen.write_text("example=ex1\nn=120\np=20\nreps=3\n", encoding="utf-8")
    out = tmp_path / "agg.json"
    argv = ["simulate", "--scenario", str(scen), "--reps", "1"]
    monkeypatch.setattr(sys, "argv", ["vcforward", *argv, "--out", str(out), "--no-timestamp"])
    assert main() == 0
    scenario = json.loads(out.read_text(encoding="utf-8"))["scenario"]
    assert scenario["reps"] == 1 and scenario["n"] == 120


def test_simulate_requires_example(capsys):
    assert main(["simulate", "--n", "100"]) == 1
    assert "example" in capsys.readouterr().err


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
    # So is a screen larger than p (5 covariates in the CSV, 50 simulated),
    # found before the SNR estimate and any rep.
    calls = []
    monkeypatch.setattr(cli, "_rep_task", calls.append)
    monkeypatch.setattr(cli, "snr", calls.append)
    data = _noise_csv(tmp_path / "noise.csv")
    out = tmp_path / "out.json"
    select = ["select", "--data", str(data), "--y-column", "y", "--t-column", "t"]
    simulate = ["simulate", "--example", "ex1", "--p", "50", "--reps", "2"]
    for value in ("-5", "80"):
        scen = tmp_path / "scenario.txt"
        scen.write_text(f"example=ex1\np=50\nreps=2\nscreen_k={value}\n", encoding="utf-8")
        for args in (
            select + ["--screen-k", value],
            simulate + ["--screen-k", value],
            ["simulate", "--scenario", str(scen)],
        ):
            assert main(args + ["--out", str(out)]) == 1
            err = capsys.readouterr().err
            assert "usage error" in err and "screen_k" in err and value in err
    assert calls == [] and not out.exists()
    assert main(select + ["--L", "5", "--screen-k", "0", "--out", str(out)]) == 0


def test_select_report_and_curves_on_one_path_is_usage_error(tmp_path, capsys):
    data = _noise_csv(tmp_path / "noise.csv")
    out = tmp_path / "out.json"
    (tmp_path / "sub").mkdir()
    argv = ["select", "--data", str(data), "--y-column", "y", "--t-column", "t", "--L", "5"]
    assert main(argv + ["--out", str(out), "--curves-out", str(tmp_path / "sub" / ".." / "out.json")]) == 1
    err = capsys.readouterr().err
    assert "usage error: --out and --curves-out name the same file" in err
    assert not out.exists()


def test_select_report_over_its_input_is_usage_error(tmp_path, capsys):
    data = _noise_csv(tmp_path / "noise.csv")
    before = data.read_bytes()
    argv = ["select", "--data", str(data), "--y-column", "y", "--t-column", "t", "--L", "5"]
    assert main(argv + ["--out", str(data)]) == 1
    assert "usage error: --data and --out name the same file" in capsys.readouterr().err
    assert data.read_bytes() == before


def test_simulate_aggregate_and_per_rep_on_one_path_is_usage_error(tmp_path, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(cli, "_rep_task", calls.append)
    monkeypatch.setattr(cli, "snr", calls.append)
    monkeypatch.chdir(tmp_path)
    args = ["simulate", "--example", "ex1", "--p", "50", "--reps", "2"]
    assert main(args + ["--out", "agg.json", "--per-rep-out", str(tmp_path / "agg.json")]) == 1
    assert "usage error: --out and --per-rep-out name the same file" in capsys.readouterr().err
    scen = tmp_path / "scenario.txt"
    scen.write_text("example=ex1\np=50\nreps=2\n", encoding="utf-8")
    assert main(["simulate", "--scenario", "scenario.txt", "--out", str(scen)]) == 1
    assert "usage error: --scenario and --out name the same file" in capsys.readouterr().err
    assert scen.read_text(encoding="utf-8") == "example=ex1\np=50\nreps=2\n"
    assert calls == [] and not (tmp_path / "agg.json").exists()


def test_simulate_workers_pool_names_fork(tmp_path, monkeypatch):
    # The pool's start method is named, not the platform's default
    # (forkserver on Linux from Python 3.14).
    import concurrent.futures

    contexts = []

    class Recorder:
        def __init__(self, max_workers, mp_context=None):
            contexts.append(mp_context)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorder)
    args = ["simulate", "--example", "ex1", "--p", "50", "--reps", "2", "--workers", "2"]
    assert main(args + ["--out", str(tmp_path / "agg.json")]) == 0
    assert [ctx.get_start_method() for ctx in contexts] == ["fork"]


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
    # There is one selection criterion, and no flag that names it.
    required = ["--data", "d.csv", "--y-column", "y", "--t-column", "t"]
    for args in (["select", *required], ["simulate", "--example", "ex1"]):
        assert main([*args, "--criterion", "argmin-sigma"]) == 1
        assert "unrecognized arguments: --criterion argmin-sigma" in capsys.readouterr().err


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


def test_select_rejects_a_covariate_of_unsafe_magnitude(tmp_path, capsys):
    rng = np.random.default_rng(3)
    n = 300
    t = rng.random(n)
    x = rng.standard_normal((n, 6))
    y = 2.0 * x[:, 0] * (1.0 + t) + x[:, 1] + rng.standard_normal(n)
    x[:, 1] *= 1e-200
    path = tmp_path / "tiny_x2.csv"
    header = "y,t," + ",".join(f"x{j}" for j in range(1, 7))
    cells = np.column_stack([y, t, x])
    np.savetxt(path, cells, fmt="%.17g", delimiter=",", header=header, comments="")
    out = tmp_path / "r.json"
    argv = ["select", "--data", str(path), "--y-column", "y", "--t-column", "t", "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "data error" in err and "covariate 'x2' has largest magnitude" in err
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


def test_select_warns_when_no_forward_step_was_allowed(tmp_path, capsys):
    # n = 22 at L = 7 leaves no step after the intercept under the default
    # cap, as does --max-steps 0 at any n; either report says so.
    rng = np.random.default_rng(62)
    n = 22
    t, x = rng.random(n), rng.standard_normal((n, 3))
    data = _cells_csv(tmp_path / "short.csv", ["y", "t", "a", "b", "c"], [x[:, 0] + t, t, x])
    out = tmp_path / "r.json"
    select = ["select", "--data", str(data), "--y-column", "y", "--t-column", "t", "--L", "7",
              "--no-timestamp", "--out", str(out)]
    for flags, given in (([], "without --max-steps"), (["--max-steps", "0"], "with --max-steps 0")):
        assert main(select + flags) == 0, capsys.readouterr().err
        report = json.loads(out.read_text(encoding="utf-8"))
        assert report["selection"]["stop_reason"] == "max_steps"
        assert report["selection"]["steps"] == [] and report["selection"]["final_names"] == ["intercept"]
        assert report["warnings"] == [f"no forward step: the step cap was 0 at n=22, L=7 {given}"]


def _clustered_csv(path, seed):
    # 95% of t on U(0, 0.1) and the rest on U(0, 1), so that few training
    # points lie under the last basis functions; x1 and x2 are active.
    rng = np.random.default_rng(seed)
    n, p = 300, 6
    t = np.where(rng.random(n) < 0.95, 0.1 * rng.random(n), rng.random(n))
    x = rng.standard_normal((n, p))
    y = 2.0 * x[:, 0] * (1.0 + t) + x[:, 1] + 0.5 * rng.standard_normal(n)
    names = ["y", "t", *(f"x{j}" for j in range(1, p + 1))]
    return _cells_csv(path, names, [y, t, x])


def test_select_warns_when_every_candidate_fails_the_rank_rule(tmp_path, capsys):
    # At seed 3 the training points under the L=7 basis functions are
    # [292, 297, 299, 300, 8, 3, 1], so every candidate's block fails the
    # rank rule at the first step. At seed 0 x1 enters, and then every
    # remaining block, active x2's included, fails it. Expected: exit 0,
    # with a warning that names the basis function with the fewest training
    # points, which a library caller reads off the trace.
    out = tmp_path / "r.json"
    cases = (
        (3, ["intercept"], "no forward step: every candidate failed the rank rule; "
         "basis function 7 of 7, on [0.75, 1], holds the fewest training points, 1"),
        (0, ["intercept", "x1"], "no forward step after step 1: every remaining candidate failed "
         "the rank rule; basis function 7 of 7, on [0.75, 1], holds the fewest training points, 3"),
    )
    for seed, final_names, warning in cases:
        data = _clustered_csv(tmp_path / f"clustered{seed}.csv", seed)
        select = ["select", "--data", str(data), "--y-column", "y", "--t-column", "t",
                  "--no-timestamp", "--out", str(out)]
        assert main(select) == 0, capsys.readouterr().err
        report = json.loads(out.read_text(encoding="utf-8"))
        sel = report["selection"]
        assert (sel["final_names"], sel["stop_reason"]) == (final_names, "candidates_exhausted")
        assert len(sel["steps"]) == len(final_names) - 1
        assert report["warnings"] == [warning]
        trace = vf.run_forward(vf.load_csv(data, "y", "t"), vf.build_basis(7, 4), vf.EbicConfig())
        assert trace.warnings == (warning,)
    # A pool that holds no candidate is no cause for it.
    noise = _noise_csv(tmp_path / "noise.csv")
    full = ["select", "--data", str(noise), "--y-column", "y", "--t-column", "t", "--L", "5",
            "--initial", "intercept,x1,x2,x3,x4,x5", "--no-timestamp", "--out", str(out)]
    assert main(full) == 0, capsys.readouterr().err
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["selection"]["stop_reason"] == "candidates_exhausted"
    assert report["selection"]["steps"] == [] and report["warnings"] == []


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
    # three basis functions of the L=7 basis. Three distinct values are
    # fewer than the spline dimension, a data error (exit 2) whatever the
    # initial set. Clustered values are all distinct: the default initial
    # set is a numerical error (exit 3), and an empty initial set is a
    # result (exit 0) with no covariate, since every candidate is
    # degenerate, and its report and (grid-only) curves file are written.
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
    if np.unique(t).size == 3:
        for initial in ("intercept", "empty"):
            assert main([*argv, "--initial", initial]) == 2
            err = capsys.readouterr().err
            assert "the index variable takes 3 distinct values, fewer than the spline dimension 7" in err
            assert not out.exists() and not curves.exists()
        return
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert "initial covariate 'intercept': its spline block is rank deficient on its own" in err
    assert not out.exists()
    assert main([*argv, "--initial", "empty"]) == 0, capsys.readouterr().err
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["selection"]["final_set"] == [] and report["selection"]["steps"] == []
    assert report["selection"]["stop_reason"] == "candidates_exhausted"
    assert report["dataset"]["rescale_map"] == [0.0, 1.0]
    assert list(report["curves"]) == ["t"]
    rows = curves.read_text(encoding="utf-8").splitlines()
    assert rows[0] == "t" and len(rows) == 102
    assert "selected 0 covariates" in capsys.readouterr().out


def test_cli_import_loads_no_process_pool():
    # Only a simulate run with --workers > 1 needs the process pool, and
    # importing it loads multiprocessing.
    script = """
import json, sys
import vcforward.cli
print(json.dumps(sorted(
    m for m in ("multiprocessing", "concurrent.futures.process") if m in sys.modules
)))
"""
    src = str(Path(vf.__file__).resolve().parents[1])
    path = [src, os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    assert json.loads(done.stdout.strip().splitlines()[-1]) == []


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
