"""The package's namespaces as their callers use them: the README and the benchmark tracer."""

import importlib
import math
import re
from pathlib import Path

import subspacepde as sp

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_library_example() -> str:
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_every_exported_name_resolves():
    missing = [name for name in sp.__all__ if not hasattr(sp, name)]
    assert missing == []


def test_namespace_is_the_readme_example():
    used = set(re.findall(r"\bsp\.(\w+)", readme_library_example()))
    assert used == set(sp.__all__)


def test_readme_example_runs_at_tiny_size():
    report = sp.solve(
        sp.builtin("helmholtz1d"),
        sp.PartitionSpec((2,)),
        sp.SamplingConfig(interior_counts=(20,), seed=202),
        sp.NetworkConfig(input_dim=1, hidden_widths=(10, 10), subspace_dim=20),
        sp.TrainingConfig(max_epochs=3),
        nonlinear=None,
    )
    assert math.isfinite(report.norms.l2_rel)
    assert 0 < report.epochs_mean <= 3

    report = sp.solve(
        sp.builtin("burgers1d"),
        sp.PartitionSpec((2, 1)),
        sp.SamplingConfig(interior_counts=(8, 8), seed=202),
        sp.NetworkConfig(input_dim=2, hidden_widths=(10,), subspace_dim=20),
        sp.TrainingConfig(max_epochs=3),
        nonlinear=sp.NonlinearConfig(method="picard", max_iters=3),
    )
    assert report.method == "picard" and report.nonlinear_iters >= 1
    assert math.isfinite(report.norms.l2_rel)


def test_benchmark_tracer_layers_resolve(bench_tracing):
    # The tracer skips a layer the library no longer has, and that layer's
    # metric then reads 0 instead of failing; only these four are retired.
    missing = [
        f"{module}.{attr}"
        for module, attr, _, _ in bench_tracing.LAYERS
        if not hasattr(importlib.import_module(f"subspacepde.{module}"), attr)
    ]
    assert sorted(missing) == [
        "assembly.CachedLstsq",
        "solver.CachedLstsq",
        "solver.assemble_newton_rows",
        "solver.assemble_picard_rows",
    ]
