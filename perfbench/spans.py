"""In-memory span recorder for the traced run, and its per-layer summary.

Spans are recorded from the benchmark's own wrappers around the names that
the package modules import across a layer boundary; the program itself is
not changed. A wrapper is installed only for the duration of a traced op.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import statistics
import time
from collections import defaultdict

LAYERS = ("cli", "data", "simulation", "splines", "selection", "regression", "report")


def _run_forward_info(args, trace):
    """Candidate-pool size, sweeps and candidate scores of one forward pass."""
    dataset, basis = args["dataset"], args["basis"]
    initial = {int(j) for j in args["initial_set"]}
    if args["candidate_pool"] is None:
        pool = dataset.p + 1 - len(initial | set(dataset.constant_columns))
    else:
        pool = len({int(j) for j in args["candidate_pool"]} - initial)
    steps = len(trace.steps)
    # A pass that runs out of candidates sweeps once more and finds none.
    sweeps = steps + (trace.stop_reason == "candidates_exhausted" and pool > steps)
    return {
        "pool": pool,
        "sweeps": sweeps,
        "scores": sweeps * pool - sweeps * (sweeps - 1) // 2,
        "pool_bytes": 2 * dataset.n * pool * basis.dim * 8,
    }


def _file_bytes(key):
    def info(args, _result):
        return {"bytes": os.path.getsize(args[key])}

    return info


# (importing module, name, layer that defines it, info from bound args and result)
WRAPS = (
    ("cli", "load_csv", "data", lambda a, ds: {"cells": ds.n * (ds.p + 2)}),
    ("cli", "build_basis", "splines", None),
    ("cli", "basis_matrix", "splines", None),
    ("cli", "marginal_rank_screen", "selection", None),
    ("cli", "run_forward", "selection", _run_forward_info),
    ("cli", "fit_full", "regression", lambda a, fit: {"rank_ok": fit.rank_ok}),
    ("cli", "curve_grid", "report", None),
    ("cli", "selection_curves", "report", None),
    ("cli", "build_selection_report", "report", None),
    ("cli", "write_report", "report", _file_bytes("path")),
    ("cli", "write_curves", "report", _file_bytes("path")),
    ("cli", "snr", "simulation", None),
    ("cli", "aggregate", "simulation", None),
    ("simulation", "run_rep", "simulation", None),
    ("simulation", "generate", "simulation", None),
    ("simulation", "evaluate_rep", "simulation", None),
    ("simulation", "from_arrays", "data", None),
    ("simulation", "build_basis", "splines", None),
    ("simulation", "basis_matrix", "splines", None),
    ("simulation", "marginal_rank_screen", "selection", None),
    ("simulation", "run_forward", "selection", _run_forward_info),
    ("simulation", "fit_full", "regression", lambda a, fit: {"rank_ok": fit.rank_ok}),
    ("simulation", "predict_response", "regression", None),
    # Basis evaluations inside the selection and regression layers, so that
    # splines.basis_matrix_calls counts every evaluation.
    ("selection", "basis_matrix", "splines", None),
    ("regression", "basis_matrix", "splines", None),
)


class Tracer:
    """Records (op, span id, parent id, name, layer, start, end, info) spans.

    Spans are recorded only in the process that created the tracer, so
    process-pool workers forked during a traced op record nothing.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._pid = os.getpid()
        self._op = None
        self._patches = []
        for module_name, attr, layer, info in WRAPS:
            module = importlib.import_module(f"vcforward.{module_name}")
            original = getattr(module, attr)
            wrapper = self._wrap(f"{layer}.{attr}", layer, original, info)
            self._patches.append((module, attr, original, wrapper))

    def _wrap(self, name, layer, fn, info):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._op is None or os.getpid() != self._pid:
                return fn(*args, **kwargs)
            sid = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            self.spans.append(None)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[sid] = (self._op, sid, parent, name, layer, start, end, {})
            if info is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self.spans[sid][7].update(info(bound.arguments, result))
            return result

        return wrapper

    def traced_call(self, op_id, fn, *args):
        """Call ``fn`` as the root ``cli.main`` span of op ``op_id``."""
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)
        self._op = op_id
        sid = len(self.spans)
        self.spans.append(None)
        self._stack = [sid]
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            end = time.perf_counter()
            self.spans[sid] = (op_id, sid, None, "cli.main", "cli", start, end, {})
            self._op = None
            self._stack = []
            for module, attr, original, _ in self._patches:
                setattr(module, attr, original)


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def summarize(spans, count_ops) -> dict[str, float]:
    """Per-layer metrics from the spans of traced ops.

    Times named after a function are the median seconds per call;
    ``<layer>.self_s`` is the layer's mean self time per op, so the layers'
    self times add up to ``trace.op_s_traced``. Counts are means per op over
    ``count_ops``, the traced ops of the first pass over the inputs, so they
    repeat exactly for a seed.
    """
    child_time = defaultdict(float)
    for op, _, parent, _, _, start, end, _ in spans:
        if parent is not None:
            child_time[(op, parent)] += end - start
    n_count = max(len(count_ops), 1)
    durs = defaultdict(list)
    self_by_layer = defaultdict(float)
    write_by_op = defaultdict(float)
    totals = defaultdict(float)
    counts = defaultdict(float)
    op_wall = []
    for op, sid, parent, name, layer, start, end, info in spans:
        dur = end - start
        own = dur - child_time[(op, sid)]
        self_by_layer[layer] += own
        durs[name].append(dur)
        if parent is None:
            op_wall.append(dur)
        if name in ("report.write_report", "report.write_curves"):
            write_by_op[op] += dur
        for key, value in info.items():
            totals[(name, key)] += value
            if op in count_ops:
                counts[(name, key)] += value
        if op in count_ops:
            counts[(name, "calls")] += 1

    def per_op(*keys):
        return sum(counts[k] for k in keys) / n_count

    n_ops = max(len(op_wall), 1)
    rf_time = sum(durs["selection.run_forward"])
    load_time = sum(durs["data.load_csv"])
    fits = len(durs["regression.fit_full"])
    out = {
        "selection.run_forward_s": _median(durs["selection.run_forward"]),
        "selection.scores_per_s": (
            totals[("selection.run_forward", "scores")] / rf_time if rf_time else 0.0
        ),
        "selection.candidate_scores": per_op(("selection.run_forward", "scores")),
        "selection.sweeps": per_op(("selection.run_forward", "sweeps")),
        "selection.pool_bytes_computed": max(
            (s[7]["pool_bytes"] for s in spans if s[3] == "selection.run_forward"), default=0
        ),
        "selection.screen_s": _median(durs["selection.marginal_rank_screen"]),
        "data.load_csv_s": _median(durs["data.load_csv"]),
        "data.cells_per_s": totals[("data.load_csv", "cells")] / load_time if load_time else 0.0,
        "regression.fit_full_s": _median(durs["regression.fit_full"]),
        "regression.fit_full_calls": per_op(("regression.fit_full", "calls")),
        "regression.rank_ok_ratio": totals[("regression.fit_full", "rank_ok")] / fits if fits else 0.0,
        "simulation.generate_s": _median(durs["simulation.generate"]),
        "simulation.evaluate_rep_s": _median(durs["simulation.evaluate_rep"]),
        "simulation.snr_s": _median(durs["simulation.snr"]),
        "splines.basis_matrix_s": _median(durs["splines.basis_matrix"]),
        "splines.basis_matrix_calls": per_op(("splines.basis_matrix", "calls")),
        "report.write_s": _median(list(write_by_op.values())),
        "report.bytes_written": per_op(
            ("report.write_report", "bytes"), ("report.write_curves", "bytes")
        ),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_by_layer[layer] / n_ops
    out["trace.op_s_traced"] = sum(op_wall) / n_ops
    return out
