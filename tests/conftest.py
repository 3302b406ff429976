"""Shared pytest hooks and fixtures; one line per acceptance criterion is printed at the end."""

import importlib.util
import sys
from pathlib import Path

import pytest


@pytest.fixture
def bench_workloads(monkeypatch):
    """The benchmark's workloads, loaded read-only from `bench/workloads.py`."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    # Dataclasses look their defining module up in sys.modules.
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module.WORKLOADS


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
