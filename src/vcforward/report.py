"""JSON run reports and plot-ready coefficient-curve CSV exports."""

from __future__ import annotations

import json
import math
import sys

import numpy as np
import scipy

from .data import GRID_NAME
from .errors import DataError
from .regression import FitResult, coefficient_curve
from .splines import SplineBasis

SCHEMA_VERSION = 1
CURVE_GRID_SIZE = 101


def curve_grid(size: int = CURVE_GRID_SIZE) -> np.ndarray:
    return np.linspace(0.0, 1.0, size)


def _json_safe(value):
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def selection_curves(
    fit: FitResult, basis: SplineBasis, column_names, grid: np.ndarray
) -> dict[str, list[float]]:
    """Coefficient functions of every fitted covariate, evaluated on the grid.

    Keys are column names in fitted order; values are lists of curve values.
    """
    curves: dict[str, list[float]] = {}
    for j in fit.index_set:
        name = column_names[j]
        curves[name] = [float(v) for v in coefficient_curve(fit, basis, j, grid)]
    return curves


def build_selection_report(
    *,
    config: dict,
    dataset_info: dict,
    trace,
    final_names,
    curves: dict[str, list[float]],
    grid: np.ndarray,
    metrics: dict | None = None,
    warnings: list[str] | None = None,
    timestamp: str | None = None,
) -> dict:
    """Assemble the selection report with a stable key order."""
    report: dict = {"schema": SCHEMA_VERSION}
    if timestamp is not None:
        report["generated_at"] = timestamp
    report["config"] = config
    report["versions"] = {
        "python": ".".join(str(v) for v in sys.version_info[:3]),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }
    report["dataset"] = dataset_info
    report["selection"] = {
        "initial_set": list(trace.initial_set),
        "steps": [
            {
                "index": s.index,
                "sigma_sq": s.sigma_sq,
                "ebic": _json_safe(s.ebic),
                "delta_rss": s.delta_rss,
            }
            for s in trace.steps
        ],
        "final_set": list(trace.final_set),
        "final_names": list(final_names),
        "stop_reason": trace.stop_reason,
        "eta": trace.eta,
    }
    report["sigma_sq_path"] = [_json_safe(v) for v in trace.sigma_sq_path]
    report["ebic_path"] = [_json_safe(v) for v in trace.ebic_path]
    report["curves"] = {GRID_NAME: [float(v) for v in grid], **curves}
    report["metrics"] = metrics
    report["warnings"] = list(warnings or [])
    return report


def write_report(report: dict, path) -> None:
    """Write a report as UTF-8 JSON with a trailing newline."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
    except OSError as exc:
        raise DataError(f"{path}: {exc.strerror or exc}") from exc


def write_curves(curves: dict[str, list[float]], grid: np.ndarray, path) -> None:
    """Write curves as CSV: header ``t,<name>,...``, one row per grid point.

    Grid values are printed with two decimals; curve values keep full
    precision (shortest round-trip decimal form).
    """
    names = list(curves)
    for name in names:
        if len(curves[name]) != len(grid):
            raise ValueError(f"curve {name!r} length does not match the grid")
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(",".join([GRID_NAME] + names) + "\n")
            for i, t in enumerate(grid):
                row = [f"{float(t):.2f}"] + [repr(float(curves[nm][i])) for nm in names]
                fh.write(",".join(row) + "\n")
    except OSError as exc:
        raise DataError(f"{path}: {exc.strerror or exc}") from exc
