"""In-memory spans around the library's layer calls, and the metrics they give.

A span has a name, start, end, the span it ran inside, and the id of the
solve it belongs to.  Spans are recorded by wrapping library functions in
the module namespace that looks them up (see `LAYERS`).  Nothing under the
library's sources changes; `Tracer.uninstall` puts the originals back, and
a layer the library no longer has is skipped rather than failing the run.

A span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import importlib
import inspect
import statistics
import time
from dataclasses import asdict, dataclass, field

ROOT = "solver.solve"


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans of one solve; single-threaded, so a stack gives parents."""

    def __init__(self, solve_id: str):
        self.solve_id = solve_id
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._patched: list[tuple[object, str, object]] = []

    def open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, parent, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    def wrap(self, module, attr: str, name: str, note=None) -> None:
        """Replace ``module.attr`` by a wrapper recording a span per call.

        ``note(span, bound_args, result)`` runs after the span is closed, so
        what it computes is not charged to the layer.
        """
        original = getattr(module, attr, None)
        if original is None:
            return
        signature = inspect.signature(original) if note is not None else None
        tracer = self

        def wrapper(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(span)
            if note is not None:
                try:
                    note(span, signature.bind(*args, **kwargs).arguments, result)
                except (AttributeError, KeyError, TypeError):
                    pass  # a changed signature costs this span its counts, not the solve
            return result

        setattr(module, attr, wrapper)
        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def to_json(self) -> dict:
        return {"solve_id": self.solve_id, "spans": [asdict(s) for s in self.spans]}


def _note_points(span: Span, args: dict, result) -> None:
    span.attrs["points"] = len(result)


def _note_epochs(span: Span, args: dict, result) -> None:
    span.attrs["epochs"] = int(result[1])


def _note_forward(span: Span, args: dict, result) -> None:
    # Computed, not counted: one GEMM of n points x C channels per layer.
    channels = 1 + len(args["first_axes"]) + len(args["second_keys"])
    n = len(args["points"])
    weights = sum(w.size for w in args["params"].weights)
    span.attrs["flops"] = 2 * n * channels * weights


def _note_system(span: Span, args: dict, result) -> None:
    matrix = result.matrix
    span.attrs["rows"], span.attrs["cols"] = matrix.shape
    span.attrs["bytes"] = int(matrix.nbytes)
    span.attrs["nonzero_frac"] = float((matrix != 0).sum() / matrix.size)


def _note_rank(span: Span, args: dict, result) -> None:
    span.attrs["rank"] = int(result.rank)


# (module under subspacepde, attribute, span name, note).  `solver` imports
# its layer functions by name, so they are wrapped there; the training
# forward pass is wrapped in `training` so basis evaluation does not count.
LAYERS = [
    ("solver", "partition", "geometry.partition", None),
    ("solver", "sample_interior", "geometry.sample", _note_points),
    ("solver", "sample_boundary", "geometry.sample", _note_points),
    ("solver", "sample_interface", "geometry.sample", _note_points),
    ("solver", "init_params", "network.init_params", None),
    ("solver", "train_subdomain", "training.train_subdomain", _note_epochs),
    ("training", "forward_states", "training.forward", _note_forward),
    ("solver", "eval_basis", "network.eval_basis", None),
    ("solver", "assemble_pde_rows", "assembly.assemble", None),
    ("solver", "assemble_picard_rows", "assembly.assemble", None),
    ("solver", "assemble_newton_rows", "assembly.assemble", None),
    ("solver", "assemble_boundary_rows", "assembly.assemble", None),
    ("solver", "assemble_continuity_rows", "assembly.assemble", None),
    ("solver", "assemble_global", "assembly.assemble", _note_system),
    ("solver", "solve_least_squares", "assembly.lstsq", None),
    ("solver", "CachedLstsq", "assembly.factor", _note_rank),
    # `solve_least_squares` builds its factorization in `assembly`'s namespace.
    ("assembly", "CachedLstsq", "assembly.factor", _note_rank),
    ("solver", "_finish_report", "solver.evaluate", None),
]


def instrument(tracer: Tracer) -> None:
    """Wrap every layer call a solve makes that still exists in the library."""
    for module_name, attr, name, note in LAYERS:
        try:
            module = importlib.import_module(f"subspacepde.{module_name}")
        except ModuleNotFoundError:
            continue
        tracer.wrap(module, attr, name, note)


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _quantile(values, q: float) -> float:
    """Nearest-rank quantile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def self_times(spans: list[Span]) -> dict[int, float]:
    covered = {s.id: 0.0 for s in spans}
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.duration
    return {s.id: s.duration - covered[s.id] for s in spans}


def self_time_by_name(spans: list[Span]) -> dict[str, float]:
    out: dict[str, float] = {}
    for s, own in zip(spans, self_times(spans).values()):
        out[s.name] = out.get(s.name, 0.0) + own
    return out


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced solve (the root span is ``ROOT``)."""
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def total(name: str) -> float:
        return sum(s.duration for s in by_name.get(name, []))

    root = by_name[ROOT][0]
    solve_s = root.duration

    # Epochs: the interval between consecutive training forwards inside one
    # `train_subdomain` call; the part after the forward is backward + Adam.
    forwards = by_name.get("training.forward", [])
    children: dict[int, list[Span]] = {}
    for f in forwards:
        children.setdefault(f.parent, []).append(f)
    epoch_s, backward_adam_s = [], []
    for group in children.values():
        group.sort(key=lambda s: s.start)
        for a, b in zip(group, group[1:]):
            epoch_s.append(b.start - a.start)
            backward_adam_s.append(b.start - a.start - a.duration)
    forward_time = sum(f.duration for f in forwards)
    flops = sum(f.attrs.get("flops", 0) for f in forwards)

    factors = by_name.get("assembly.factor", [])
    lstsq_ids = {s.id for s in by_name.get("assembly.lstsq", [])}
    lstsq_s = total("assembly.lstsq") + sum(
        f.duration for f in factors if f.parent not in lstsq_ids
    )
    # System shape and density are the largest assembled system's; the rank
    # is the last factorization's.
    systems = [s for s in by_name.get("assembly.assemble", []) if "rows" in s.attrs]
    system = max(systems, key=lambda s: s.attrs["bytes"]).attrs if systems else {}
    train_spans = by_name.get("training.train_subdomain", [])
    train_s = total("training.train_subdomain")
    covered = sum(s.duration for s in spans if s.parent == root.id)

    return {
        "geometry.sample_s": total("geometry.sample"),
        "geometry.points": sum(s.attrs.get("points", 0) for s in by_name.get("geometry.sample", [])),
        "training.train_s": train_s,
        "training.train_share": train_s / solve_s,
        "training.epochs": sum(s.attrs.get("epochs", 0) for s in train_spans),
        "training.subdomain_s_max": max((s.duration for s in train_spans), default=0.0),
        "training.epoch_ms_p50": 1e3 * _median(epoch_s),
        "training.epoch_ms_p99": 1e3 * _quantile(epoch_s, 0.99),
        "training.forward_ms_p50": 1e3 * _median([f.duration for f in forwards]),
        "training.backward_adam_ms_p50": 1e3 * _median(backward_adam_s),
        "training.forward_gflops": flops / forward_time / 1e9 if forward_time else 0.0,
        "network.eval_basis_s": total("network.eval_basis"),
        "network.eval_basis_calls": len(by_name.get("network.eval_basis", [])),
        "assembly.assemble_s": total("assembly.assemble"),
        "assembly.system_rows": system.get("rows", 0),
        "assembly.system_cols": system.get("cols", 0),
        "assembly.system_mb": system.get("bytes", 0) / 1e6,
        "assembly.nonzero_frac": system.get("nonzero_frac", 0.0),
        "assembly.factorizations": len(factors),
        "assembly.factor_s_p50": _median([f.duration for f in factors]),
        "assembly.lstsq_s": lstsq_s,
        "assembly.lstsq_share": lstsq_s / solve_s,
        "assembly.rank": factors[-1].attrs.get("rank", 0) if factors else 0,
        "solver.evaluate_s": total("solver.evaluate"),
        "trace.coverage": covered / solve_s,
    }
