"""Command-line entry points: select, simulate, basis-check.

Exit codes: 0 success, 1 usage/configuration error, 2 data error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import datetime
import functools
import os
import sys
from dataclasses import asdict

import numpy as np

from .data import load_csv, open_file
from .errors import ConfigError, DataError, NumericalError
from .regression import fit_full
from .report import (
    SCHEMA_VERSION,
    build_selection_report,
    curve_grid,
    selection_curves,
    write_curves,
    write_report,
)
from .selection import EbicConfig, marginal_rank_screen, run_forward
from .simulation import SimScenario, _rep_task, aggregate, snr
from .splines import basis_matrix, build_basis

# Keys a scenario file may set, each read as the ``simulate`` flag it names.
SCENARIO_KEYS = (
    "example", "n", "p", "t1", "t2", "seed", "reps",
    "L", "order", "eta_rule", "eta", "patience", "screen_k",
)

# The files each command reads or writes, by argparse dest; no two may be
# one file.
_PATH_DESTS = {"select": ("data", "out", "curves_out"), "simulate": ("scenario", "out", "per_rep_out")}


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of exiting, so usage errors map to code 1."""

    def error(self, message):
        raise ConfigError(message)


def _timestamp() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")


# Built once per process: parsing leaves it unchanged, and main() may run often.
@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="vcforward", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    # Flags shared by select and simulate.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--L", type=int, default=7, help="spline dimension (default %(default)s)")
    common.add_argument("--order", type=int, default=4, help="spline order (default %(default)s, cubic)")
    common.add_argument("--eta-rule", choices=("auto", "explicit"), default="explicit")
    common.add_argument("--eta", type=float, default=None, help="EBIC weight (0 = BIC)")
    common.add_argument("--patience", type=int, default=5)
    common.add_argument("--screen-k", type=int, default=0, help="marginal pre-screen size (0 = off)")
    common.add_argument("--no-timestamp", action="store_true", help="omit the timestamp (golden tests)")

    sel = sub.add_parser("select", parents=[common], help="forward selection on a CSV dataset")
    sel.add_argument("--data", required=True, help="input CSV with header row")
    sel.add_argument("--y-column", required=True, help="response column name")
    sel.add_argument("--t-column", required=True, help="index-variable column name")
    sel.add_argument("--max-steps", type=int, default=None)
    sel.add_argument("--initial", default="intercept", help="'intercept', 'empty', or comma-separated columns")
    sel.add_argument("--out", default="report.json", help="report JSON path")
    sel.add_argument("--curves-out", default=None, help="optional coefficient-curve CSV path")

    sim = sub.add_parser("simulate", parents=[common], help="run a Monte Carlo scenario")
    sim.add_argument("--scenario", default=None, help="scenario file with key=value lines")
    sim.add_argument("--example", choices=("ex1", "ex2"), default=None)
    sim.add_argument("--n", type=int, default=400)
    sim.add_argument("--p", type=int, default=1000)
    sim.add_argument("--t1", type=float, default=0.0)
    sim.add_argument("--t2", type=float, default=0.0)
    sim.add_argument("--seed", type=int, default=1)
    sim.add_argument("--reps", type=int, default=200)
    sim.add_argument("--workers", type=int, default=1)
    sim.add_argument("--out", default="aggregate.json", help="aggregate JSON path")
    sim.add_argument("--per-rep-out", default=None, help="optional per-repetition CSV path")

    chk = sub.add_parser("basis-check", help="print partition-of-unity diagnostics")
    chk.add_argument("--L", type=int, default=7)
    chk.add_argument("--order", type=int, default=4)
    chk.add_argument("--points", type=int, default=1000)
    return parser


def _parse_initial(arg: str, column_names) -> tuple[int, ...]:
    if arg == "intercept":
        return (0,)
    if arg == "empty":
        return ()
    names = {name: j for j, name in enumerate(column_names)}
    out = []
    for item in arg.split(","):
        item = item.strip()
        if not item:
            continue
        if item in names:
            out.append(names[item])
            continue
        try:
            j = int(item)
        except ValueError:
            raise ConfigError(f"unknown initial covariate {item!r}") from None
        if not 0 <= j < len(column_names):
            raise ConfigError(f"initial covariate {item!r} is out of range [0, {len(column_names) - 1}]")
        out.append(j)
    if not out:
        raise ConfigError(f"--initial {arg!r} names no covariate; use 'empty' for the empty model")
    return tuple(out)


def _check_distinct_paths(args) -> None:
    """Raise ConfigError when two of the command's file flags name one file,
    compared by ``os.path.realpath``, so that no output overwrites an input
    or another output."""
    seen: dict[str, str] = {}
    for dest in _PATH_DESTS.get(args.command, ()):
        path = getattr(args, dest)
        if path is None:
            continue
        flag = "--" + dest.replace("_", "-")
        first = seen.setdefault(os.path.realpath(path), flag)
        if first != flag:
            raise ConfigError(f"{first} and {flag} name the same file {path!r}")


def _stopping_rule(args) -> EbicConfig:
    """The forward pass's stopping rule from parsed settings."""
    if args.eta_rule == "auto" and args.eta is not None:
        raise ConfigError("--eta conflicts with --eta-rule auto")
    return EbicConfig(
        eta=args.eta if args.eta is not None else 0.0,
        eta_rule=args.eta_rule,
        patience=args.patience,
        max_steps=getattr(args, "max_steps", None),
    )


def cmd_select(args) -> int:
    config = _stopping_rule(args)
    basis = build_basis(args.L, args.order)
    dataset = load_csv(args.data, args.y_column, args.t_column, min_rows=2 * args.L)
    _check_screen_k(args.screen_k, dataset.p)

    warnings: list[str] = []
    if dataset.rescale_map != (0.0, 1.0):
        a, b = dataset.rescale_map
        warnings.append(f"index variable rescaled to [0, 1] from [{a!r}, {b!r}]")

    initial = _parse_initial(args.initial, dataset.column_names)
    pool = None
    if args.screen_k > 0:
        # The screen ranks covariates only; the intercept stays a candidate
        # (run_forward drops it from the pool when it is in the initial set).
        pool = [0, *marginal_rank_screen(dataset, basis, args.screen_k)]
    trace = run_forward(dataset, basis, config, initial_set=initial, candidate_pool=pool)
    warnings.extend(trace.warnings)
    fit = fit_full(trace.final_cache, dataset.y)
    grid = curve_grid()
    curves = selection_curves(fit, basis, dataset.column_names, grid)

    config_echo = {
        "command": "select",
        "data": args.data,
        "y_column": args.y_column,
        "t_column": args.t_column,
        "L": args.L,
        "order": args.order,
        "eta_rule": args.eta_rule,
        "eta": trace.eta,
        "patience": args.patience,
        "max_steps": args.max_steps,
        "screen_k": args.screen_k,
        "initial": args.initial,
    }
    dataset_info = {
        "n": dataset.n,
        "p": dataset.p,
        "rescale_map": list(dataset.rescale_map),
        "constant_columns": list(dataset.constant_columns),
    }
    report = build_selection_report(
        config=config_echo,
        dataset_info=dataset_info,
        trace=trace,
        final_names=[dataset.column_names[j] for j in trace.final_set],
        curves=curves,
        grid=grid,
        warnings=warnings,
        timestamp=None if args.no_timestamp else _timestamp(),
    )
    write_report(report, args.out)
    if args.curves_out:
        write_curves(curves, grid, args.curves_out)

    names = ", ".join(dataset.column_names[j] for j in trace.final_set) or "(none)"
    print(f"selected {len(trace.final_set)} covariates: {names}")
    print(f"stop reason: {trace.stop_reason}; report written to {args.out}")
    return 0


def _read_scenario_file(path) -> list[str]:
    """The ``key=value`` lines of a scenario file as ``--key=value`` flags.

    The ``=`` form keeps a value such as ``-5`` from reading as a flag.
    """
    flags = []
    with open_file(path, encoding="utf-8-sig") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in SCENARIO_KEYS:
                raise ConfigError(
                    f"{path}:{lineno}: unknown key {key!r}; valid keys: " + ", ".join(SCENARIO_KEYS)
                )
            flags.append(f"--{key.replace('_', '-')}={value.strip()}")
    return flags


def _check_screen_k(screen_k: int, p: int) -> None:
    """Raise ConfigError unless the resolved ``screen_k``, from a flag or a
    scenario file, is 0 (off) or a screen size within the p covariates."""
    if not 0 <= screen_k <= p:
        raise ConfigError(f"screen_k must be in [0, {p}] (0 = off), got {screen_k}")


def cmd_simulate(args) -> int:
    if args.example is None:
        raise ConfigError("an example id is required (--example or scenario file)")
    if args.workers < 1:
        raise ConfigError(f"--workers must be at least 1, got {args.workers}")
    scenario = SimScenario(
        example_id=args.example,
        n=args.n,
        p=args.p,
        t1=args.t1,
        t2=args.t2,
        seed=args.seed,
        reps=args.reps,
    )
    _check_screen_k(args.screen_k, scenario.p)
    config = _stopping_rule(args)
    build_basis(args.L, args.order)  # validate early
    snr_estimate = snr(scenario)

    tasks = [(scenario, r, args.L, args.order, config, args.screen_k) for r in range(scenario.reps)]
    if args.workers > 1:
        # Imported here: they load multiprocessing, which no other run needs.
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # Named: 3.14's default, forkserver, starts slowly and needs a __main__ guard.
        context = multiprocessing.get_context("fork") if hasattr(os, "fork") else None
        with ProcessPoolExecutor(args.workers, context) as pool:
            results = list(pool.map(_rep_task, tasks, chunksize=1))
    else:
        results = [_rep_task(t) for t in tasks]

    agg = aggregate([m for _, m, _, _ in results], snr_estimate=snr_estimate)

    out = {"schema": SCHEMA_VERSION}
    if not args.no_timestamp:
        out["generated_at"] = _timestamp()
    out["scenario"] = asdict(scenario)
    out["settings"] = {
        "L": args.L,
        "order": args.order,
        "eta_rule": args.eta_rule,
        "eta": args.eta,
        "patience": args.patience,
        "screen_k": args.screen_k,
        "workers": args.workers,
    }
    out["metrics"] = asdict(agg)
    write_report(out, args.out)

    if args.per_rep_out:
        with open_file(args.per_rep_out, "w", encoding="utf-8", newline="") as fh:
            fh.write("rep,tp,fp,pe,model_size,selected,stop_reason\n")
            for rep, m, final_set, stop in results:
                sel = ";".join(str(j) for j in final_set)
                fh.write(f"{rep},{m.tp},{m.fp},{m.pe!r},{m.model_size},{sel},{stop}\n")

    print(
        f"{scenario.example_id} [{scenario.t1:g},{scenario.t2:g}] reps={scenario.reps}: "
        f"TP={agg.mean_tp:.2f} FP={agg.mean_fp:.2f} PE={agg.mean_pe:.3f} "
        f"size={agg.mean_size:.2f} SNR={agg.snr_estimate:.2f}"
    )
    print(f"aggregate written to {args.out}")
    return 0


def cmd_basis_check(args) -> int:
    if args.points < 1:
        raise ConfigError(f"--points must be at least 1, got {args.points}")
    basis = build_basis(args.L, args.order)
    grid = np.linspace(0.0, 1.0, args.points)
    bmat = basis_matrix(basis, grid)
    sums = bmat.sum(axis=1)
    nonzero = (bmat != 0.0).sum(axis=1)
    print(f"basis: dim={basis.dim} order={basis.order}")
    print(f"interior knots: {', '.join(f'{k:.6g}' for k in basis.interior_knots) or '(none)'}")
    print(f"max |sum - 1| over {args.points} points: {np.abs(sums - 1.0).max():.3e}")
    print(f"max nonzero entries per point: {int(nonzero.max())} (order = {basis.order})")
    print(f"min basis value: {bmat.min():.3e}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = parser.parse_args(argv)
        _check_distinct_paths(args)
        if getattr(args, "scenario", None):
            # The file's flags go first, so a command-line flag wins (last
            # wins). The command line parsed above; an error here is the file's.
            file_flags = _read_scenario_file(args.scenario)
            try:
                args = parser.parse_args([*argv[:1], *file_flags, *argv[1:]])
            except ConfigError as exc:
                raise ConfigError(f"{args.scenario}: {exc}") from None
        if args.command == "select":
            return cmd_select(args)
        if args.command == "simulate":
            return cmd_simulate(args)
        if args.command == "basis-check":
            return cmd_basis_check(args)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
