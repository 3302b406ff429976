"""Solve benchmark for subspacepde: time, memory and accuracy digits per workload.

One workload runs as a closed loop: one client, one solve at a time, each
solve in a fresh process (`solve_once.py`) that imports the library from
this checkout's ``src``, validates the config generated from ``--seed`` and
calls the solver.  Solves repeat until ``--seconds`` are spent, each from
its own seed derived from ``--seed``; every metric is the median over the
run's solves after the first, which warms the machine up.  Each solve must
pass the workload's correctness gate; one that raises or fails it is
counted in ``failed`` and never dropped.

With ``--trace 1`` each iteration is a pair of solves, one untraced and
one traced (see `tracing.py`).  The pair must agree bit for bit on the
coefficients and on ``l2_rel``; the per-layer metrics come from the traced
solve and the difference in solve time is the tracing overhead.

Usage, from the root of the repository:

    python3 bench/run.py --workload helmholtz1d --seed 202 --seconds 40 --trace 0
    python3 bench/run.py --workload all --trace 1

Human-readable lines come first, with the environment (core count, BLAS
and its pinned thread count, Python and numpy versions, a GEMM rate); the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  A traced run also writes its
spans to ``bench/out/trace-<workload>-seed<seed>.json``.
"""

import os
import sys

# Pin BLAS to one thread before numpy is imported here or in any solve
# process.  The training GEMMs are a few hundred rows wide and gain nothing
# from a second thread, while a second thread spins on, and waits for, the
# slower of two shared cores; one thread keeps the solve on one core.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
# Let glibc malloc keep freed memory in the solve processes.  With its
# defaults every training epoch maps its temporaries afresh, and the minor
# page faults that follow take about a third of a helmholtz1d solve; their
# cost on a shared virtual machine swings by a fifth from minute to minute.
MALLOC_KEEP_BYTES = 256 * 2**20
for _var in ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_"):
    os.environ[_var] = str(MALLOC_KEEP_BYTES)

import argparse
import itertools
import json
import math
import platform
import statistics
import subprocess
import time
from pathlib import Path

import numpy as np
from workloads import WORKLOADS, Workload

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
# A run must end within 180 s; no solve may start a wait beyond this.
RUN_LIMIT_S = 170.0
# Solve k of a run uses workload seed ``seed + k * SEED_STRIDE``: every solve
# starts from another network initialization, and runs whose seeds differ by
# less than the stride share none.
SEED_STRIDE = 1_000_003


def blas_info() -> tuple[str, str]:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return str(blas.get("name", "unknown")), str(blas.get("version", "unknown"))
    except (TypeError, KeyError):
        return "unknown", "unknown"


def dgemm_gflops(m: int, k: int, n: int, seconds: float = 0.3) -> float:
    """Median float64 GEMM rate of an (m, k) @ (k, n) product."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((m, k))
    b = rng.standard_normal((k, n))
    out = np.empty((m, n))
    np.matmul(a, b, out=out)
    rates = []
    end = time.perf_counter() + seconds
    while time.perf_counter() < end or len(rates) < 5:
        t0 = time.perf_counter()
        for _ in range(10):
            np.matmul(a, b, out=out)
        rates.append(10 * 2.0 * m * k * n / (time.perf_counter() - t0) / 1e9)
    return statistics.median(rates)


def environment(workload: Workload) -> dict:
    blas, blas_version = blas_info()
    shape = workload.gemm_shape()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas,
        "blas_version": blas_version,
        "blas_threads": BLAS_THREADS,
        "malloc_keep_bytes": MALLOC_KEEP_BYTES,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "dgemm_shape": list(shape),
        "machine.dgemm_gflops": dgemm_gflops(*shape),
    }


def solve(workload: Workload, seed: int, trace: bool, solve_id: str, timeout: float) -> dict:
    """Run one solve in a fresh process and return its result record."""
    request = {
        "config": workload.config(seed),
        "trace": trace,
        "solve_id": solve_id,
        "src": str(SRC),
    }
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "solve_once.py"), json.dumps(request)],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired:
        return {"error": f"solve did not finish within {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"error": f"exit {proc.returncode}: {tail[0]}"}
    result = json.loads(lines[-1])
    if "ready" in result:
        result["setup_s"] = result["ready"] - spawned
    return result


def gate(workload: Workload, r: dict) -> str | None:
    """Why a solve fails the workload's correctness gate, or None if it passes."""
    if "error" in r:
        return r["error"]
    if not r["beta_finite"]:
        return "non-finite coefficients"
    for key, bound in (("l2_rel", workload.l2_rel_max), ("jump", workload.jump_max)):
        value = r[key]
        if value is None or not math.isfinite(value) or value > bound:
            return f"{key}={value} outside the bound {bound:g}"
    if not r["converged"]:
        return "nonlinear iteration did not converge"
    return None


def digits(value: float | None) -> float:
    """Correct decimal digits of a relative error; none for a non-finite one."""
    if value is None or not math.isfinite(value):
        return 0.0
    return -math.log10(max(value, 1e-300))


def median_of(records: list[dict], key) -> float:
    values = [key(r) for r in records]
    return statistics.median(values) if values else float("nan")


def end_to_end(records: list[dict]) -> dict[str, float]:
    return {
        "solve_s": median_of(records, lambda r: r["solve_s"]),
        "setup_s": median_of(records, lambda r: r["setup_s"]),
        "peak_rss_mb": median_of(records, lambda r: r["peak_rss_mb"]),
        "l2_rel_digits": median_of(records, lambda r: digits(r["l2_rel"])),
        "jump_digits": median_of(records, lambda r: digits(r["jump"])),
    }


def per_layer(pairs: list[tuple[dict, dict]], env: dict) -> dict[str, float]:
    untraced = [u for u, _ in pairs]
    traced = [t for _, t in pairs]
    metrics = {
        name: median_of(traced, lambda r, name=name: r["layers"][name])
        for name in traced[0]["layers"]
    }
    metrics["solver.nonlinear_iters"] = median_of(traced, lambda r: r["nonlinear_iters"])
    metrics["solver.unaccounted_s"] = median_of(untraced, lambda r: r["solve_s"] - r["wall_total_s"])
    metrics["trace.overhead_s"] = median_of(traced, lambda r: r["solve_s"]) - median_of(
        untraced, lambda r: r["solve_s"]
    )
    metrics["machine.dgemm_gflops"] = env["machine.dgemm_gflops"]
    return metrics


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    env = environment(workload)
    start = time.monotonic()
    records: list[dict] = []
    pairs: list[tuple[dict, dict]] = []
    problems: list[str] = []
    for k in itertools.count():
        began = time.monotonic()
        solve_seed = seed + k * SEED_STRIDE
        if trace:
            solve_id = f"{workload.name}-seed{solve_seed}"
            pair = []
            for traced in (False, True):
                timeout = RUN_LIMIT_S - (time.monotonic() - start)
                pair.append(solve(workload, solve_seed, traced, solve_id, timeout))
            records.extend(pair)
            untraced, traced_r = pair
            if "error" not in untraced and "error" not in traced_r:
                if (untraced["beta_sha256"], untraced["l2_rel_hex"]) != (
                    traced_r["beta_sha256"],
                    traced_r["l2_rel_hex"],
                ):
                    problems.append(f"{solve_id}: tracing changed beta or l2_rel")
                pairs.append((untraced, traced_r))
        else:
            timeout = RUN_LIMIT_S - (time.monotonic() - start)
            records.append(solve(workload, solve_seed, False, workload.name, timeout))
        now = time.monotonic()
        if now - start + (now - began) > min(seconds, RUN_LIMIT_S):
            break

    failures = [reason for reason in (gate(workload, r) for r in records) if reason]
    # The first iteration is gated and counted but warms up and stays out of
    # the medians, unless the run held no other.  Solves that failed the gate
    # but returned a report stay in the medians.
    warm = 2 if trace else 1
    reported = [r for r in (records[warm:] or records) if "error" not in r]
    if trace:
        pairs = pairs[1:] or pairs
        metrics = per_layer(pairs, env) if pairs else {}
    else:
        metrics = end_to_end(reported) if reported else {}
    return {
        "workload": workload.name,
        "seed": seed,
        "env": env,
        "attempted": len(records),
        "failed": len(failures),
        "problems": failures + problems,
        "metrics": metrics,
        "records": records,
    }


def print_summary(result: dict, units: dict[str, str]) -> None:
    name = result["workload"]
    print(f"[{name}] seed {result['seed']}: {result['attempted']} solves, {result['failed']} failed")
    print(f"[{name}] env {json.dumps(result['env'], sort_keys=True)}")
    for problem in result["problems"]:
        print(f"[{name}] problem: {problem}")
    for metric in ("solve_s", "setup_s"):
        times = " ".join(f"{r[metric]:.3f}" for r in result["records"] if metric in r)
        print(f"[{name}] {metric} of each solve: {times}")
    for metric, value in result["metrics"].items():
        print(f"[{name}] {metric:32s} {value:14.6g} {units[metric]}")
    if "training.forward_gflops" in result["metrics"]:
        print(f"[{name}] training.forward_gflops is computed: 2*n*C*sum(w_in*w_out) / forward time")
    traced = [r for r in result["records"] if "self_s" in r]
    if traced:
        solve_s = median_of(traced, lambda r: r["solve_s"])
        print(f"[{name}] self time by span, median of {len(traced)} traced solves of {solve_s:.3f} s:")
        for span in sorted(traced[0]["self_s"]):
            own = median_of(traced, lambda r: r["self_s"].get(span, 0.0))
            print(f"[{name}]   {span:32s} {own:10.4f} s {100 * own / solve_s:6.2f} %")


def write_trace(result: dict) -> None:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{result['workload']}-seed{result['seed']}.json"
    doc = {
        "workload": result["workload"],
        "seed": result["seed"],
        "env": result["env"],
        "solves": [r.pop("trace") for r in result["records"] if "trace" in r],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=202)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "subspacepde" / "__init__.py").is_file():
        print(f"no library sources at {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        result = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        if result["metrics"] and set(result["metrics"]) != set(units):
            print(f"metrics {sorted(result['metrics'])} differ from BENCHMARK.json", file=sys.stderr)
            return 1
        print_summary(result, units)
        if args.trace:
            write_trace(result)
        results.append(result)

    if not all(r["metrics"] for r in results):
        print("no solve returned a report; nothing to report", file=sys.stderr)
        return 1
    prefix = len(results) > 1
    metrics = {
        (f"{r['workload']}.{m}" if prefix else m): {"value": v, "unit": units[m]}
        for r in results
        for m, v in r["metrics"].items()
    }
    print(
        json.dumps(
            {
                "correct": all(not r["problems"] for r in results),
                "attempted": sum(r["attempted"] for r in results),
                "failed": sum(r["failed"] for r in results),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
