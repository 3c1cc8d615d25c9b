"""Op process: runs one workload's ops in-process through ``vcforward.cli.main``.

Usage: python3 opproc.py CONFIG_JSON

The config names the workload, its inputs, the time to measure, whether to
trace, and where to write results. A fresh process per workload keeps peak
RSS separate. Results go to ``<work>/<tag>.result.json`` and, when traced,
spans to ``<work>/<tag>.spans.jsonl``.
"""

from __future__ import annotations

import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

import workloads


def blas_facts() -> dict:
    """BLAS library, version and effective thread count, read and never changed."""
    import numpy as np

    facts = {"blas": "unknown", "blas_version": "unknown", "blas_threads": None}
    blas = (np.show_config(mode="dicts").get("Build Dependencies") or {}).get("blas") or {}
    facts["blas"] = blas.get("name", "unknown")
    facts["blas_version"] = blas.get("version", "unknown")
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_", ""):
            for suffix in ("64_", ""):
                fn = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    facts["blas_threads"] = fn()
                    return facts
    return facts


class Runner:
    """Runs ops, checks every output and keeps the first output of each input."""

    def __init__(self, w: workloads.Workload, out_dir: Path, cli, tracer=None):
        self.w = w
        self.out_dir = out_dir
        self.cli = cli
        self.tracer = tracer
        self.ops: list[dict] = []
        self.quality: dict[int, dict] = {}
        self._digests: dict[tuple, str] = {}

    def run(self, k: int, inp: dict, workers: int, traced: bool, cycle: int) -> dict:
        for name in ("aggregate.json", "per_rep.csv", "report.json", "curves.csv"):
            (self.out_dir / name).unlink(missing_ok=True)
        argv = workloads.op_argv(self.w, inp, workers, self.out_dir)
        op_id = len(self.ops)
        problems = []
        sink = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                if traced:
                    code = self.tracer.traced_call(op_id, self.cli.main, argv)
                else:
                    code = self.cli.main(argv)
        except Exception:  # an op that raises is a failed op; the run goes on
            code = None
            problems.append(traceback.format_exc(limit=3).strip().splitlines()[-1])
        wall = time.perf_counter() - start
        if code != 0:
            problems.append(f"exit code {code}: {sink.getvalue().strip()[-300:]}")
        quality, digest = None, None
        try:
            if self.w.kind == "simulate":
                found, quality, digest = workloads.check_simulate(self.out_dir, self.w.reps)
            else:
                found, quality, digest = workloads.check_select(self.out_dir)
            problems += found
        except (ValueError, IndexError, KeyError, TypeError, AttributeError) as exc:
            problems.append(f"output check raised {exc!r}")
        if not problems:
            first = self._digests.setdefault((k, workers), digest)
            if first != digest:
                problems.append("output differs from an earlier op on the same input")
            if workers == 1:
                self.quality.setdefault(k, quality)
        rec = {
            "op": op_id, "input": k, "cycle": cycle, "workers": workers,
            "traced": traced, "wall": wall, "ok": not problems, "problems": problems,
        }
        self.ops.append(rec)
        return rec


def schedule(w: workloads.Workload, trace: bool, i: int):
    """(workers, traced) ops run on the ``i``-th input visited.

    The untraced and traced ops swap order from one input to the next, so
    that neither always runs first.
    """
    if not trace:
        return [(1, False)]
    slots = [(1, False), (1, True)]
    if i % 2:
        slots.reverse()
    if w.efficiency:
        slots.append((2, False))
    return slots


def main(config_path: str) -> int:
    cfg = json.loads(Path(config_path).read_text(encoding="utf-8"))
    src = Path(cfg["src"]).resolve()
    sys.path.insert(0, str(src))
    import vcforward.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(src):
        print(f"vcforward imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    facts = {
        "python": platform.python_version(),
        "numpy": __import__("numpy").__version__,
        "scipy": __import__("scipy").__version__,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        **blas_facts(),
    }
    w = workloads.workload(cfg["workload"], cfg["tiny"])
    out_dir = Path(cfg["work"]) / cfg["tag"]
    out_dir.mkdir(parents=True, exist_ok=True)
    tracer = None
    if cfg["trace"]:
        from spans import Tracer

        tracer = Tracer()
    runner = Runner(w, out_dir, cli, tracer)
    inputs = cfg["inputs"]
    # One untimed one-rep op first, so that lazy imports, BLAS start-up and
    # first-touch page faults, paid once per process, fall outside the timed
    # ops.
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        cli.main(workloads.op_argv(w, inputs[0], 1, out_dir, reps=1))

    deadline = time.perf_counter() + cfg["seconds"]
    i = 0
    # At least one full pass over the inputs, then until the time is up.
    while i < len(inputs) or time.perf_counter() < deadline:
        k = i % len(inputs)
        for workers, traced in schedule(w, cfg["trace"], i):
            runner.run(k, inputs[k], workers, traced, i // len(inputs))
        i += 1

    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {
        "facts": facts,
        "peak_rss_mb": usage / 1024.0,
        "ops": runner.ops,
        "quality": [runner.quality.get(k) for k in range(len(inputs))],
    }
    work = Path(cfg["work"])
    if tracer is not None:
        with open(work / f"{cfg['tag']}.spans.jsonl", "w", encoding="utf-8") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    (work / f"{cfg['tag']}.result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
