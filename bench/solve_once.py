"""One solve in a fresh process: import, validate the config, solve, report.

Usage (from `run.py`): ``python3 solve_once.py '<json request>'`` where the
request holds the config document, the solve id and whether to trace.  The
BLAS thread count must already be pinned in the environment.  ``ready`` is
the `time.monotonic` reading at the solver call, so the caller gets the
set-up time from its own reading at process start.  The last line
of standard output is one JSON object with the solve's timings, accuracy,
peak memory and, when traced, its spans and per-layer metrics.
"""

import hashlib
import json
import os
import resource
import sys
import time

import numpy as np
import tracing

import subspacepde
from subspacepde.cli import execute
from subspacepde.config import from_dict


def main() -> int:
    request = json.loads(sys.argv[1])
    source = os.path.realpath(subspacepde.__file__)
    if not source.startswith(os.path.realpath(request["src"]) + os.sep):
        print(f"imported subspacepde from {source}, not from {request['src']}", file=sys.stderr)
        return 2
    config = from_dict(request["config"])

    tracer = None
    if request["trace"]:
        tracer = tracing.Tracer(request["solve_id"])
        tracing.instrument(tracer)
        root = tracer.open(tracing.ROOT)

    ready = time.monotonic()
    try:
        report = execute(config, write_outputs=False)
    except Exception as exc:  # a failed solve is counted by the caller, never dropped
        print(json.dumps({"error": f"{type(exc).__name__}: {exc}"}))
        return 0
    solve_s = time.monotonic() - ready
    if tracer is not None:
        tracer.close(root)
        tracer.uninstall()

    beta = report.beta.values
    l2_rel = report.norms.l2_rel if report.norms is not None else None
    result = {
        "ready": ready,
        "solve_s": solve_s,
        "wall_total_s": report.wall_times["total"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "l2_rel": l2_rel,
        "jump": report.interface_jump_max,
        "converged": bool(report.converged),
        "beta_finite": bool(np.isfinite(beta).all()),
        "beta_sha256": hashlib.sha256(beta.tobytes()).hexdigest(),
        "l2_rel_hex": float(l2_rel).hex() if l2_rel is not None else None,
        "nonlinear_iters": report.warmup_iters_used + report.nonlinear_iters,
    }
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer.spans)
        result["self_s"] = tracing.self_time_by_name(tracer.spans)
        result["trace"] = tracer.to_json()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
