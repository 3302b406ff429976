"""Batch experiment runner.

Subcommands:
    solve <config.json>                      run one configured solve
    sweep <config.json> --axis A --values V  run one solve per value
    list-problems                            show the builtin benchmarks

Outputs land under the config's ``output_dir``: ``report.json`` and
``solution.csv`` for a run, ``sweep.csv`` for a sweep, and per-subdomain
``training_log_<k>.csv`` files when training logging is on.  Exit codes:
0 success, 2 config error, 3 numerical failure.

The ``SUBSPACEPDE_WORKERS`` environment variable sets how many sweep cells
run concurrently (a positive integer, default 1); aggregation stays in the
parent process.  A failing cell, at any worker count, becomes a
``failed: ...`` row of ``sweep.csv``.
"""

from __future__ import annotations

import argparse
import copy
import os
import sys
from pathlib import Path

import numpy as np

from .config import ConfigError, RunConfig, from_dict, load_config
from .problems import BUILTIN_NAMES, BUILTIN_SUMMARIES, builtin
from .solver import SolveReport, solve
from .training import TrainingError

SWEEP_AXES = ("subspace_dim", "subdomains", "hidden_layers", "sampling", "seed")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def execute(config: RunConfig, write_outputs: bool = True) -> SolveReport:
    """Run the configured solve, optionally writing report and samples."""
    out_dir = Path(config.output_dir)
    log_dir = None
    if write_outputs:
        out_dir.mkdir(parents=True, exist_ok=True)
        if config.training_log:
            log_dir = str(out_dir)
    dump_path = str(out_dir / config.dump_system) if (write_outputs and config.dump_system) else None

    report = solve(
        config.problem,
        config.partition,
        config.sampling,
        config.network,
        config.training,
        config.nonlinear,
        init_mode=config.init_mode,
        evaluation=config.evaluation,
        log_dir=log_dir,
        dump_path=dump_path,
    )
    if write_outputs:
        report.save_json(out_dir / "report.json")
        _write_solution_csv(report, out_dir / "solution.csv")
    return report


def _fmt(value: float | None) -> str:
    return "" if value is None else f"{value:.16e}"


def _write_solution_csv(report: SolveReport, path: Path) -> None:
    points, u_hat, u_exact = report.samples
    dim = points.shape[1]
    header = ([f"x{i}" for i in range(dim)] if dim > 1 else ["x"]) + ["u"]
    columns = [points, u_hat]
    if u_exact is not None:
        header += ["exact", "error"]
        columns += [u_exact, u_hat - u_exact]
    np.savetxt(
        path, np.column_stack(columns), fmt="%.16e", delimiter=",", header=",".join(header), comments=""
    )


def _summary_line(report: SolveReport) -> str:
    norms = report.norms
    l2_rel = _fmt(norms.l2_rel) if norms else ""
    linf = _fmt(norms.linf) if norms else ""
    return (
        f"problem={report.problem} subdomains={report.num_subdomains} "
        f"M={report.subspace_dim} l2_rel={l2_rel or 'n/a'} linf={linf or 'n/a'} "
        f"epochs_mean={report.epochs_mean:.1f} iters={report.nonlinear_iters} "
        f"converged={report.converged} seconds={report.wall_times['total']:.2f}"
    )


def cmd_solve(args) -> int:
    try:
        config = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        report = execute(config)
    except (TrainingError, FloatingPointError, ValueError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    print(_summary_line(report))
    return EXIT_OK


def _apply_sweep_value(doc: dict, axis: str, value) -> dict:
    out = copy.deepcopy(doc)
    if axis == "subspace_dim":
        out["network"]["subspace_dim"] = value
    elif axis == "subdomains":
        dim = len(out["partition"]["counts"])
        out["partition"]["counts"] = [value] * dim
    elif axis == "hidden_layers":
        widths = out["network"].get("hidden_widths") or [100]
        out["network"]["hidden_widths"] = [widths[0]] * value
    elif axis == "sampling":
        out["sampling"]["strategy"] = value
    elif axis == "seed":
        out["sampling"]["seed"] = value
        out.setdefault("training", {})["seed"] = value
    else:
        raise ConfigError(f"unknown sweep axis {axis!r}")
    return out


def _parse_sweep_values(axis: str, values: str) -> list:
    items = [v.strip() for v in values.split(",") if v.strip()]
    if not items:
        raise ConfigError("sweep needs at least one value")
    if axis == "sampling":
        return items  # each cell's config validates the strategy name
    try:
        return [int(v) for v in items]
    except ValueError:
        raise ConfigError(f"axis {axis!r} needs integer values") from None


def _run_sweep_cell(doc: dict) -> dict:
    """One sweep cell, run in a worker; returns plain row data, a failure as its status."""
    try:
        report = execute(from_dict(doc), write_outputs=False)
    except Exception as exc:
        return {"status": f"failed: {exc}"}
    norms = report.norms
    return {
        "l2_abs": norms.l2_abs if norms else None,
        "l2_rel": norms.l2_rel if norms else None,
        "linf": norms.linf if norms else None,
        "epochs": report.epochs_mean,
        "iters": report.nonlinear_iters,
        "seconds": report.wall_times["total"],
        "status": "ok" if report.converged else "not_converged",
    }


def _sweep_workers() -> int:
    raw = os.environ.get("SUBSPACEPDE_WORKERS", "1")
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ConfigError(f"SUBSPACEPDE_WORKERS: needs a positive integer, got {raw!r}")
    return workers


def cmd_sweep(args) -> int:
    try:
        workers = _sweep_workers()
        base = load_config(args.config)
        values = _parse_sweep_values(args.axis, args.values)
        cell_docs = [_apply_sweep_value(base.raw, args.axis, v) for v in values]
        for doc in cell_docs:  # fail fast on configs the sweep value broke
            from_dict(doc)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    if workers > 1:
        # Imported here: a solve process has no use for them (~1 MB resident).
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # forkserver: forking a process that runs BLAS threads is unsafe.
        context = multiprocessing.get_context("forkserver")
        with ProcessPoolExecutor(max_workers=workers, mp_context=context) as pool:
            futures = [pool.submit(_run_sweep_cell, doc) for doc in cell_docs]
        # Only a worker that died leaves an exception on its future.
        results = [
            {"status": f"failed: {f.exception()}"} if f.exception() else f.result()
            for f in futures
        ]
    else:
        results = [_run_sweep_cell(doc) for doc in cell_docs]
    rows = list(zip(values, results))

    out_dir = Path(base.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    sweep_path = out_dir / "sweep.csv"
    with open(sweep_path, "w", newline="", encoding="utf-8") as fh:
        fh.write("value,l2_abs,l2_rel,linf,epochs,iters,seconds,status\n")
        for value, row in rows:
            fields = [
                str(value),
                _fmt(row.get("l2_abs")),
                _fmt(row.get("l2_rel")),
                _fmt(row.get("linf")),
                _fmt(row.get("epochs")),
                str(row.get("iters", "")),
                _fmt(row.get("seconds")),
                row.get("status", ""),
            ]
            fh.write(",".join(fields) + "\n")
    print(f"wrote {sweep_path} ({len(rows)} rows)")
    return EXIT_OK


def cmd_list_problems(_args) -> int:
    for name in BUILTIN_NAMES:
        problem = builtin(name)
        axes = " x ".join(f"[{lo:g}, {hi:g}]" for lo, hi in problem.domain.axes)
        print(f"{name}: {axes}")
        print(f"    {BUILTIN_SUMMARIES[name]}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subspacepde",
        description="Collocation PDE solver with per-subdomain neural subspace bases",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run one configured solve")
    p_solve.add_argument("config", help="path to a JSON run configuration")
    p_solve.set_defaults(func=cmd_solve)

    p_sweep = sub.add_parser("sweep", help="run the config once per sweep value")
    p_sweep.add_argument("config", help="path to a JSON run configuration")
    p_sweep.add_argument("--axis", required=True, choices=SWEEP_AXES)
    p_sweep.add_argument("--values", required=True, help="comma-separated sweep values")
    p_sweep.set_defaults(func=cmd_sweep)

    p_list = sub.add_parser("list-problems", help="list the builtin benchmark problems")
    p_list.set_defaults(func=cmd_list_problems)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
