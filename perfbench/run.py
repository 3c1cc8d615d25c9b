"""vcforward benchmark: one workload, one seed, one measured run.

Usage (from the repository root):

    python3 perfbench/run.py --workload sim_ex1_p1000 --seed 1 --seconds 12 --trace 0

Prints every end-to-end metric by name and unit (``--trace 0``) or every
per-layer metric (``--trace 1``), then, as its last line, one JSON object
with the keys correct, attempted, failed and metrics. Scratch files go to
``.bench_work/`` under the repository root. Exit code 2 means the benchmark
could not run: a bad argument, or no ``src/vcforward`` to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import workloads
from spans import summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 15
RUN_LIMIT_S = 170  # a run must end within 180 s; op processes get what is left


def _env(**extra) -> dict:
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _timed_run(cmd: list[str], limit_s: float) -> float:
    """Wall time of one child process, run to its end.

    A blocking wait returns as soon as the child exits. ``subprocess.run``
    with a timeout would poll at intervals of up to 50 ms and round the time
    up to the next poll, so a timer kills an overdue child instead.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, env=_env(), stdout=subprocess.DEVNULL)
    watchdog = threading.Timer(limit_s, proc.kill)
    watchdog.start()
    try:
        code = proc.wait()
    finally:
        watchdog.cancel()
    elapsed = time.perf_counter() - start
    if code != 0:
        raise subprocess.CalledProcessError(code, cmd)
    return elapsed


def measure_setup(repeats: int) -> list[float]:
    """Wall times of fresh interpreters that import the CLI and run basis-check."""
    cmd = [sys.executable, "-m", "vcforward.cli", "basis-check"]
    _timed_run(cmd, 60)
    return [_timed_run(cmd, 60) for _ in range(repeats)]


def make_inputs(w: workloads.Workload, seed: int, work: Path) -> list[dict]:
    seeds = workloads.input_seeds(seed, w.inputs)
    if w.kind == "simulate":
        return [{"seed": s} for s in seeds]
    inputs = []
    for k, s in enumerate(seeds):
        path = work / f"input{k}.csv"
        workloads.write_select_csv(path, s, w)
        inputs.append({"csv": str(path)})
    return inputs


def run_child(args, w, inputs, work: Path, tag: str, seconds: float, deadline: float,
              **env) -> dict:
    cfg = {
        "src": str(SRC), "workload": w.name, "tiny": args.tiny, "trace": bool(args.trace),
        "inputs": inputs, "seconds": seconds, "work": str(work), "tag": tag,
    }
    cfg_path = work / f"{tag}.config.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, str(HERE / "opproc.py"), str(cfg_path)],
        env=_env(**env), timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"op process {tag!r} exited with code {proc.returncode}")
    return json.loads((work / f"{tag}.result.json").read_text(encoding="utf-8"))


def _walls(res, workers, traced):
    return [o["wall"] for o in res["ops"] if o["workers"] == workers and o["traced"] == traced]


def _mean_quality(res, key):
    vals = [q[key] for q in res["quality"] if q and key in q]
    return sum(vals) / len(vals) if vals else 0.0


def end_to_end(w, res, setup) -> list[tuple]:
    """(name, value, unit, note) rows of the end-to-end metrics."""
    walls = _walls(res, 1, False)
    ops = res["ops"]
    failed = sum(not o["ok"] for o in ops)
    tail, pct, beyond = workloads.tail(walls)
    reps = w.reps * len(walls)
    rows = [
        ("op_s_p50", statistics.median(walls), "s", f"median of {len(walls)} ops"),
        ("op_s_tail", tail, "s", f"p{pct:.1f}, {beyond} of {len(walls)} ops beyond"),
        ("reps_per_s", reps / sum(walls), "1/s", f"{reps} reps in {sum(walls):.2f} s of ops"),
        ("setup_s", statistics.median(setup), "s", f"median of {len(setup)} fresh interpreters"),
        ("peak_rss_mb", res["peak_rss_mb"], "MB", "op process"),
        ("error_rate", failed / len(ops), "ratio", f"{failed} failed of {len(ops)} attempted"),
        ("mean_tp", _mean_quality(res, "mean_tp"), "count", f"over {w.inputs} inputs"),
        ("mean_fp", _mean_quality(res, "mean_fp"), "count", f"over {w.inputs} inputs"),
        ("mean_size", _mean_quality(res, "mean_size"), "count", "selected set, intercept included"),
    ]
    if w.kind == "simulate":
        rows.append(("mean_pe", _mean_quality(res, "mean_pe"), "mse", f"over {w.inputs} inputs"))
    return rows


def _spans(work: Path, tag: str):
    with open(work / f"{tag}.spans.jsonl", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def _efficiency(res) -> float:
    one, two = _walls(res, 1, False), _walls(res, 2, False)
    return statistics.median(one) / (2 * statistics.median(two)) if one and two else 0.0


def per_layer(w, res, work: Path, blas1, spec) -> list[tuple]:
    spans = _spans(work, "main")
    count_ops = {o["op"] for o in res["ops"] if o["traced"] and o["cycle"] == 0}
    metrics = summarize(spans, count_ops)
    untraced = _walls(res, 1, False)
    traced = _walls(res, 1, True)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    metrics["cli.parallel_efficiency"] = _efficiency(res) if w.efficiency else 0.0
    metrics["regression.fit_full_s.blas1"] = 0.0
    metrics["cli.parallel_efficiency.blas1"] = 0.0
    if blas1 is not None:
        b_ops = {o["op"] for o in blas1["ops"] if o["traced"] and o["cycle"] == 0}
        b_metrics = summarize(_spans(work, "blas1"), b_ops)
        metrics["regression.fit_full_s.blas1"] = b_metrics["regression.fit_full_s"]
        metrics["cli.parallel_efficiency.blas1"] = _efficiency(blas1)
    return [(m["name"], metrics[m["name"]], m["unit"], "") for m in spec["per_layer"]]


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="smoke-test sizes (tests only)")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be nonnegative and --seconds positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "vcforward" / "cli.py").is_file():
        print(f"no program to measure: {SRC / 'vcforward'} is missing", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    w = workloads.workload(args.workload, args.tiny)
    load = os.getloadavg()
    deadline = time.monotonic() + RUN_LIMIT_S
    work = ROOT / ".bench_work" / f"{w.name}-s{args.seed}-t{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        setup = [] if args.trace else measure_setup(2 if args.tiny else SETUP_REPEATS)
        inputs = make_inputs(w, args.seed, work)
        blas1 = None
        if args.trace and w.blas1_baseline:
            res = run_child(args, w, inputs, work, "main", args.seconds / 2, deadline)
            blas1 = run_child(args, w, inputs, work, "blas1", args.seconds / 2, deadline,
                              OPENBLAS_NUM_THREADS="1")
        else:
            res = run_child(args, w, inputs, work, "main", args.seconds, deadline)
    except (subprocess.SubprocessError, RuntimeError, OSError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    finally:
        for csv_path in work.glob("input*.csv"):
            csv_path.unlink()

    rows = per_layer(w, res, work, blas1, spec) if args.trace else end_to_end(w, res, setup)
    facts = {
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "loadavg_at_start": [round(x, 2) for x in load], **res["facts"],
    }
    print(f"workload {w.name} seed {args.seed} seconds {args.seconds:g} trace {args.trace}: {w.why}")
    print("machine " + json.dumps(facts))
    if blas1 is not None:
        print("machine (blas1 baseline) " + json.dumps(blas1["facts"]))
    for name, value, unit, note in rows:
        print(f"  {name:34s} {value:>14.6g} {unit:8s} {note}")
    ops = res["ops"] + (blas1["ops"] if blas1 else [])
    failed = [o for o in ops if not o["ok"]]
    for o in failed[:5]:
        print(f"  failed op {o['op']} (input {o['input']}): {'; '.join(o['problems'])}")
    wanted = {m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    metrics = {name: {"value": value, "unit": unit} for name, value, unit, _ in rows if name in wanted}
    print(json.dumps({
        "correct": not failed, "attempted": len(ops), "failed": len(failed), "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
