"""Workload definitions, seeded input generation and output checks.

Nothing here imports the program: inputs are generated from the
benchmark's own copy of the data law, and outputs are checked by reading
the files the program wrote.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

CURVE_POINTS = 101
SIM_PER_REP_HEADER = ["rep", "tp", "fp", "pe", "model_size", "selected", "stop_reason"]
# Covariates with a nonzero coefficient in the ex1 law, as CSV column names.
EX1_SUPPORT = ("x1", "x2", "x3", "x4")


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    An op is one ``vcforward.cli.main`` call. ``inputs`` distinct inputs are
    made from the benchmark seed and cycled through, so repeated inputs can
    be checked for identical output.
    """

    name: str
    kind: str  # "simulate" or "select"
    why: str
    example: str = "ex1"
    n: int = 400
    p: int = 1000
    t1: float = 0.0
    t2: float = 0.0
    reps: int = 1  # repetitions per simulate op; a select op is one repetition
    screen_k: int = 0
    inputs: int = 8
    blas1_baseline: bool = False  # traced run repeats the ops with one BLAS thread
    efficiency: bool = False  # traced run times 1 and 2 workers on the same inputs


WORKLOADS = {
    w.name: w
    for w in (
        # 20 reps per op: the count at which the 2-worker slowdown under
        # default BLAS threading was first measured, and enough that one pool
        # start-up per op is a small share of the 2-worker slot that the
        # traced run times for cli.parallel_efficiency.
        Workload(
            "sim_ex1_p1000",
            "simulate",
            "paper headline setting: many short forward passes where generation, refit and scoring are a third of a rep",
            reps=20,
            inputs=2,
            blas1_baseline=True,
            efficiency=True,
        ),
        Workload(
            "sim_ex2_p10000_corr",
            "simulate",
            "ultra-high p with correlated covariates: the candidate tensor sweep dominates time and memory",
            example="ex2",
            p=10000,
            t1=2.0,
            t2=1.0,
            inputs=3,
        ),
        Workload(
            "select_csv_p4000_screen",
            "select",
            "32 MB CSV ingest, one marginal screening sweep over every candidate and report writing",
            p=4000,
            t1=2.0,
            t2=1.0,
            screen_k=100,
            inputs=1,
        ),
    )
}


def workload(name: str, tiny: bool = False) -> Workload:
    """The named workload; ``tiny`` shrinks it to a seconds-long smoke size."""
    w = WORKLOADS[name]
    if tiny:
        w = replace(w, n=200, p=50, reps=min(w.reps, 2), screen_k=min(w.screen_k, 20), inputs=2)
    return w


def input_seeds(seed: int, count: int) -> list[int]:
    """Distinct nonnegative per-input seeds derived from the benchmark seed."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def ex1_draw(rng: np.random.Generator, n: int, p: int, t1: float, t2: float):
    """Response, index and covariates from the ex1 law (four active covariates)."""
    u1 = rng.random(n)
    u2 = rng.random(n)
    z = rng.standard_normal((n, p))
    eps = rng.standard_normal(n)
    x = (z + t1 * u1[:, None]) / (1.0 + t1)
    t = (u2 + t2 * u1) / (1.0 + t2)
    s = np.sin(2.0 * np.pi * t)
    y = eps + 2.0 * x[:, 0] + 3.0 * t * x[:, 1] + (t + 1.0) ** 2 * x[:, 2] + 4.0 * s / (2.0 - s) * x[:, 3]
    return y, t, x


def write_select_csv(path: Path, seed: int, w: Workload) -> None:
    """Write one headered select input: columns y, t, x1..xp."""
    y, t, x = ex1_draw(np.random.default_rng(seed), w.n, w.p, w.t1, w.t2)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(["y", "t"] + [f"x{j}" for j in range(1, w.p + 1)]) + "\n")
        np.savetxt(fh, np.column_stack([y, t, x]), fmt="%.17g", delimiter=",")


def op_argv(w: Workload, inp: dict, workers: int, out_dir: Path, reps: int | None = None) -> list[str]:
    """CLI arguments of one op on one input; ``reps`` overrides the workload's."""
    if w.kind == "simulate":
        return [
            "simulate", "--example", w.example, "--n", str(w.n), "--p", str(w.p),
            "--t1", repr(w.t1), "--t2", repr(w.t2), "--reps", str(reps or w.reps),
            "--seed", str(inp["seed"]), "--workers", str(workers),
            "--out", str(out_dir / "aggregate.json"),
            "--per-rep-out", str(out_dir / "per_rep.csv"), "--no-timestamp",
        ]
    return [
        "select", "--data", inp["csv"], "--y-column", "y", "--t-column", "t",
        "--screen-k", str(w.screen_k), "--out", str(out_dir / "report.json"),
        "--curves-out", str(out_dir / "curves.csv"), "--no-timestamp",
    ]


def _read_json(path: Path, problems: list[str]):
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        problems.append(f"{path.name}: unreadable JSON ({exc})")
        return None
    if not isinstance(doc, dict) or doc.get("schema") != 1:
        problems.append(f"{path.name}: missing \"schema\": 1")
        return None
    return doc


def _digest(*paths: Path) -> str:
    h = hashlib.sha1()
    for path in paths:
        try:
            h.update(path.read_bytes())
        except OSError:
            h.update(b"<missing>")
    return h.hexdigest()


def check_simulate(out_dir: Path, reps: int):
    """Problems found in a simulate op's outputs, its quality and a digest."""
    problems: list[str] = []
    agg_path, rep_path = out_dir / "aggregate.json", out_dir / "per_rep.csv"
    quality = None
    doc = _read_json(agg_path, problems)
    if doc is not None:
        m = doc.get("metrics") or {}
        try:
            quality = {k: float(m[k]) for k in ("mean_tp", "mean_fp", "mean_pe", "mean_size")}
        except (KeyError, TypeError, ValueError):
            problems.append("aggregate.json: metrics lack mean_tp, mean_fp, mean_pe or mean_size")
    try:
        with open(rep_path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        problems.append(f"per_rep.csv: {exc}")
        rows = None
    if rows == []:
        problems.append("per_rep.csv: empty")
    elif rows:
        if rows[0] != SIM_PER_REP_HEADER:
            problems.append("per_rep.csv: unexpected header")
        body = rows[1:]
        if len(body) != reps:
            problems.append(f"per_rep.csv: {len(body)} rows for {reps} reps")
        elif [r[0] for r in body] != [str(i) for i in range(reps)]:
            problems.append("per_rep.csv: rep column is not 0..reps-1")
        elif quality is not None:
            tp = sum(float(r[1]) for r in body) / reps
            if not math.isclose(tp, quality["mean_tp"], rel_tol=1e-12):
                problems.append("per_rep.csv: tp disagrees with aggregate mean_tp")
    return problems, quality, _digest(agg_path, rep_path)


def check_select(out_dir: Path):
    """Problems found in a select op's outputs, its quality and a digest."""
    problems: list[str] = []
    rep_path, curves_path = out_dir / "report.json", out_dir / "curves.csv"
    quality = None
    doc = _read_json(rep_path, problems)
    if doc is not None:
        sel = doc.get("selection") or {}
        initial = list(sel.get("initial_set", []))
        steps = [s.get("index") for s in sel.get("steps", [])]
        final = list(sel.get("final_set", []))
        if not any(final == initial + steps[:k] for k in range(len(steps) + 1)):
            problems.append("report.json: final_set is not the initial set plus a prefix of steps")
        curves = doc.get("curves") or {}
        short = [k for k, v in curves.items() if len(v) != CURVE_POINTS]
        if not curves or short:
            problems.append(f"report.json: curves without {CURVE_POINTS} points: {short}")
        names = list(sel.get("final_names", []))
        quality = {
            "mean_tp": float(sum(nm in EX1_SUPPORT for nm in names)),
            "mean_fp": float(sum(nm not in EX1_SUPPORT and nm != "intercept" for nm in names)),
            # Counts the intercept, as the simulate aggregate's mean_size does.
            "mean_size": float(len(final)),
        }
        try:
            with open(curves_path, newline="", encoding="utf-8") as fh:
                rows = list(csv.reader(fh))
        except OSError as exc:
            problems.append(f"curves.csv: {exc}")
        else:
            want = ["t"] + [k for k in curves if k != "t"]
            if not rows or rows[0] != want:
                problems.append("curves.csv: header does not list t and every curve")
            elif len(rows) - 1 != CURVE_POINTS:
                problems.append(f"curves.csv: {len(rows) - 1} data rows, expected {CURVE_POINTS}")
            elif any(len(r) != len(want) for r in rows[1:]):
                problems.append("curves.csv: ragged rows")
    return problems, quality, _digest(rep_path, curves_path)


def tail(values: list[float]):
    """(value, percentile, samples beyond) of the highest percentile with at
    least ten samples beyond it.

    Below 20 samples that percentile would lie under the median, so the
    maximum is reported instead, with no samples beyond it.
    """
    xs = sorted(values)
    n = len(xs)
    if n < 20:
        return xs[-1], 100.0, 0
    return xs[n - 11], 100.0 * (n - 10) / n, 10
