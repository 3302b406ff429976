"""Shared pytest hooks and fixtures; one line per acceptance criterion is printed at the end."""

import importlib.util
import sys
from pathlib import Path

import pytest


def _load_bench_module(monkeypatch, stem):
    """A module of `bench/`, loaded read-only under the name ``bench_<stem>``."""
    path = Path(__file__).resolve().parents[1] / "bench" / f"{stem}.py"
    spec = importlib.util.spec_from_file_location(f"bench_{stem}", path)
    module = importlib.util.module_from_spec(spec)
    # Dataclasses look their defining module up in sys.modules.
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def bench_workloads(monkeypatch):
    """The benchmark's workloads, loaded read-only from `bench/workloads.py`."""
    return _load_bench_module(monkeypatch, "workloads").WORKLOADS


@pytest.fixture
def bench_tracing(monkeypatch):
    """The benchmark's span tracer, loaded read-only from `bench/tracing.py`."""
    return _load_bench_module(monkeypatch, "tracing")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    results = []
    for name, module in sys.modules.items():
        if name.rpartition(".")[2] == "test_acceptance":
            results = getattr(module, "CRITERION_RESULTS", [])
            break
    if not results:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for line in results:
        terminalreporter.write_line(line)
