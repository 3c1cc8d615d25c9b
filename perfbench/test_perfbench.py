"""Tests of the benchmark harness on tiny instances of every workload.

Run from the repository root: python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import opproc
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TABLE_UNITS = {
    "op_s_p50": "s", "op_s_tail": "s", "reps_per_s": "1/s", "setup_s": "s",
    "peak_rss_mb": "MB", "error_rate": "ratio", "mean_tp": "count", "mean_fp": "count",
    "mean_size": "count",
}


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _tiny(name: str, trace: int):
    proc = _bench("--workload", name, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return lines[:-1], result["metrics"]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_run_prints_every_end_to_end_metric_with_its_unit(name):
    table, metrics = _tiny(name, 0)
    assert {k: v["unit"] for k, v in metrics.items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }
    assert all(v["value"] > 0 for v in metrics.values())
    printed = {
        parts[0]: parts[2]
        for parts in (line.split() for line in table if line.startswith("  "))
    }
    wanted = dict(TABLE_UNITS)
    if workloads.WORKLOADS[name].kind == "simulate":
        wanted["mean_pe"] = "mse"
    assert {k: printed.get(k) for k in wanted} == wanted


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_traced_run_reports_layers_that_account_for_the_op(name):
    _, result = _tiny(name, 1)
    assert {k: v["unit"] for k, v in result.items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]
    }
    m = {k: v["value"] for k, v in result.items()}
    self_total = sum(m[f"{layer}.self_s"] for layer in spans.LAYERS)
    assert self_total == pytest.approx(m["trace.op_s_traced"], rel=1e-9)
    assert min(m[f"{layer}.self_s"] for layer in spans.LAYERS) >= 0.0
    assert m["report.bytes_written"] > 0
    # The root span covers the op as the runner timed it, from outside.
    res = json.loads((ROOT / ".bench_work" / f"{name}-s3-t1" / "main.result.json").read_text())
    traced_walls = [o["wall"] for o in res["ops"] if o["traced"]]
    wall = sum(traced_walls) / len(traced_walls)
    assert 0.9 * wall <= m["trace.op_s_traced"] <= wall
    # The wrappers cover the op's work: little is left to cli.main itself.
    assert m["cli.self_s"] < 0.1 * m["trace.op_s_traced"]
    assert m["splines.basis_matrix_calls"] > 0
    assert m["selection.candidate_scores"] > 0
    assert m["regression.fit_full_calls"] > 0
    w = workloads.WORKLOADS[name]
    if w.kind == "select":
        assert m["data.load_csv_s"] > 0 and m["selection.screen_s"] > 0
    else:
        assert m["simulation.snr_s"] > 0 and m["simulation.generate_s"] > 0
    assert (m["cli.parallel_efficiency"] > 0) == w.efficiency
    assert (m["regression.fit_full_s.blas1"] > 0) == w.blas1_baseline


def test_truncated_curves_csv_counts_as_failed_op(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    import vcforward.cli as cli

    w = workloads.workload("select_csv_p4000_screen", tiny=True)
    data = tmp_path / "input.csv"
    workloads.write_select_csv(data, 7, w)
    runner = opproc.Runner(w, tmp_path, cli)
    assert runner.run(0, {"csv": str(data)}, 1, False, 0)["ok"]

    write_curves = cli.write_curves

    def truncated(curves, grid, path):
        write_curves(curves, grid, path)
        lines = Path(path).read_text(encoding="utf-8").splitlines(keepends=True)
        Path(path).write_text("".join(lines[:50]), encoding="utf-8")

    monkeypatch.setattr(cli, "write_curves", truncated)
    op = runner.run(0, {"csv": str(data)}, 1, False, 1)
    assert not op["ok"]
    assert any("curves.csv" in problem for problem in op["problems"])


def test_traced_schedule_alternates_untraced_and_traced_order():
    w = workloads.WORKLOADS["sim_ex1_p1000"]
    assert opproc.schedule(w, False, 1) == [(1, False)]
    assert opproc.schedule(w, True, 0) == [(1, False), (1, True), (2, False)]
    assert opproc.schedule(w, True, 1) == [(1, True), (1, False), (2, False)]


def test_tail_keeps_ten_samples_beyond_or_reports_the_maximum():
    assert workloads.tail([float(v) for v in range(30)]) == (19.0, pytest.approx(200 / 3), 10)
    assert workloads.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def test_directory_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "sim_ex1_p1000", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
