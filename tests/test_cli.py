"""CLI: config validation, run outputs, sweeps, problem listing."""

import csv
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from subspacepde import cli
from subspacepde.cli import main
from subspacepde.config import ConfigError, from_dict, load_config


def tiny_config(out_dir, **overrides):
    doc = {
        "problem": "helmholtz1d",
        "partition": {"counts": [2]},
        "sampling": {"counts": [40], "seed": 202},
        "network": {
            "hidden_widths": [20],
            "subspace_dim": 30,
            "init": "uniform_range",
            "init_range": 1.0,
        },
        "training": {"epochs_zero": True},
        "evaluation": {"counts": [101]},
        "output_dir": str(out_dir),
    }
    doc.update(overrides)
    return doc


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def benchmark_workloads(monkeypatch):
    """The benchmark's workloads, loaded read-only from `bench/workloads.py`."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    # Dataclasses look their defining module up in sys.modules.
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module.WORKLOADS


class TestConfigValidation:
    def test_unknown_top_level_key_rejected(self, tmp_path):
        # also the removed network.subspace_activation option
        for section, key in ((None, "typo_key"), ("network", "subspace_activation")):
            doc = tiny_config(tmp_path)
            (doc if section is None else doc[section])[key] = "tanh"
            with pytest.raises(ConfigError, match=key):
                from_dict(doc)

    def test_counts_dimension_mismatch_names_field(self, tmp_path):
        doc = tiny_config(tmp_path)
        doc["partition"]["counts"] = [2, 2]
        with pytest.raises(ConfigError, match="partition.counts"):
            from_dict(doc)

    def test_unknown_problem_rejected(self, tmp_path):
        doc = tiny_config(tmp_path)
        doc["problem"] = "unknown_problem"
        with pytest.raises(ConfigError, match="problem"):
            from_dict(doc)

    def test_nonlinear_section_on_linear_problem_rejected(self, tmp_path):
        doc = tiny_config(tmp_path)
        doc["nonlinear"] = {"method": "picard"}
        with pytest.raises(ConfigError, match="nonlinear"):
            from_dict(doc)

    def test_defaults_follow_benchmark_conventions(self, tmp_path):
        config = from_dict(tiny_config(tmp_path))
        assert config.training.learning_rate == 0.001
        assert config.training.rel_tol == 1e-3
        assert config.sampling.seed == 202

    def test_benchmark_workload_configs_accepted(self, monkeypatch):
        workloads = benchmark_workloads(monkeypatch)
        assert {"helmholtz1d", "poisson2d", "burgers1d_newton"} <= set(workloads)
        for name, workload in workloads.items():
            doc = workload.config(202)
            config = from_dict(doc)
            for key in ("learning_rate", "max_epochs", "rel_tol"):
                assert getattr(config.training, key) == doc["training"][key], (name, key)
            assert (config.nonlinear is None) == ("nonlinear" not in doc), name
            for key, value in doc.get("nonlinear", {}).items():
                assert getattr(config.nonlinear, key) == value, (name, key)
        assert workloads["burgers1d_newton"].config(202)["nonlinear"]["method"] == "newton"

    def test_missing_file_reported(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "absent.json")

    def test_custom_problem_round_trip(self, tmp_path):
        doc = tiny_config(tmp_path)
        doc["problem"] = {
            "name": "poisson1d_custom",
            "domain": {"axes": [[0.0, 1.0]], "roles": ["spatial"]},
            "linear_terms": [{"coefficient": 1, "derivative": [2]}],
            "source": "-9.869604401089358 * sin(3.141592653589793 * x)",
            "boundary": "0",
            "exact": "sin(3.141592653589793 * x)",
        }
        config = from_dict(doc)
        pts = np.array([[0.5]])
        assert config.problem.exact(pts)[0] == pytest.approx(1.0, abs=1e-12)
        assert config.problem.default_continuity_orders() == (1,)

    def test_system_dump_must_be_npz(self, tmp_path):
        doc = tiny_config(tmp_path)
        doc["dump_system"] = "system.csv"
        with pytest.raises(ConfigError, match="dump_system"):
            from_dict(doc)

    def test_custom_problem_bad_expression_names_field(self, tmp_path):
        doc = tiny_config(tmp_path)
        doc["problem"] = {
            "name": "bad",
            "domain": {"axes": [[0.0, 1.0]]},
            "linear_terms": [{"coefficient": 1, "derivative": [2]}],
            "source": "sin(q)",
            "boundary": "0",
        }
        with pytest.raises(ConfigError, match="problem.source"):
            from_dict(doc)


class TestSolveCommand:
    def test_successful_run_writes_outputs(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, tiny_config(out))
        assert main(["solve", cfg]) == 0
        summary = capsys.readouterr().out
        assert "problem=helmholtz1d" in summary
        report = json.loads((out / "report.json").read_text())
        assert report["problem"] == "helmholtz1d"
        assert report["epochs_per_subdomain"] == [0, 0]
        with open(out / "solution.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 101
        assert set(rows[0]) == {"x", "u", "exact", "error"}

    def test_config_error_exit_code(self, tmp_path, capsys):
        doc = tiny_config(tmp_path)
        doc["partition"]["counts"] = [2, 2]
        cfg = write_config(tmp_path, doc)
        assert main(["solve", cfg]) == 2
        assert "partition.counts" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["counts", "boundary_counts", "interface_counts"])
    def test_sampling_count_below_two_is_config_error(self, tmp_path, capsys, key):
        doc = tiny_config(
            tmp_path,
            problem="poisson2d",
            partition={"counts": [2, 2]},
            sampling={"counts": [6, 6], "seed": 202},
            evaluation={"counts": [11, 11]},
        )
        doc["sampling"][key] = [1, 1]
        assert main(["solve", write_config(tmp_path, doc)]) == 2
        assert f"sampling.{key}" in capsys.readouterr().err

    def test_numerical_failure_exit_code(self, tmp_path, capsys):
        doc = tiny_config(tmp_path)
        # training on a NaN source diverges immediately
        doc["problem"] = {
            "name": "nan_source",
            "domain": {"axes": [[0.0, 1.0]]},
            "linear_terms": [{"coefficient": 1, "derivative": [2]}],
            "source": "0 / 0",
            "boundary": "0",
        }
        doc["training"] = {"max_epochs": 5}
        cfg = write_config(tmp_path, doc)
        assert main(["solve", cfg]) == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_reports_identical_modulo_wall_times(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        cfg_a = write_config(tmp_path, tiny_config(out_a), "a.json")
        cfg_b = write_config(tmp_path, tiny_config(out_b), "b.json")
        assert main(["solve", cfg_a]) == 0
        assert main(["solve", cfg_b]) == 0
        ra = json.loads((out_a / "report.json").read_text())
        rb = json.loads((out_b / "report.json").read_text())
        ra.pop("wall_times"), rb.pop("wall_times")
        assert ra == rb

    def test_locelm_mode_run_has_no_training_log(self, tmp_path):
        out = tmp_path / "out"
        doc = tiny_config(out)
        doc["partition"]["counts"] = [4]
        doc["training"] = {"epochs_zero": True, "log": True}
        cfg = write_config(tmp_path, doc)
        assert main(["solve", cfg]) == 0
        assert not list(out.glob("training_log_*.csv"))
        report = json.loads((out / "report.json").read_text())
        assert report["epochs_per_subdomain"] == [0, 0, 0, 0]

    def test_training_log_written_when_requested(self, tmp_path):
        out = tmp_path / "out"
        doc = tiny_config(out)
        doc["training"] = {"max_epochs": 3, "log": True}
        doc["network"]["init"] = "glorot"
        cfg = write_config(tmp_path, doc)
        assert main(["solve", cfg]) == 0
        logs = sorted(out.glob("training_log_*.csv"))
        assert len(logs) == 2
        assert logs[0].read_text().startswith("epoch,loss")

    def test_dump_system_output(self, tmp_path):
        out = tmp_path / "out"
        doc = tiny_config(out)
        doc["dump_system"] = "system.npz"
        cfg = write_config(tmp_path, doc)
        assert main(["solve", cfg]) == 0
        data = np.load(out / "system.npz")
        assert data["matrix"].shape[1] == 2 * 30

    def test_solution_csv_17_significant_digits(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, tiny_config(out))
        main(["solve", cfg])
        line = (out / "solution.csv").read_text().splitlines()[1]
        mantissa = line.split(",")[0].split("e")[0]
        assert len(mantissa.replace("-", "").replace(".", "")) == 17


class TestSweepCommand:
    def test_single_value_sweep(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, tiny_config(out))
        assert main(["sweep", cfg, "--axis", "subspace_dim", "--values", "25"]) == 0
        with open(out / "sweep.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        assert rows[0]["value"] == "25"
        assert rows[0]["status"] == "ok"
        assert float(rows[0]["l2_rel"]) > 0

    def test_subdomain_sweep_columns(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, tiny_config(out))
        assert main(["sweep", cfg, "--axis", "subdomains", "--values", "1,2,4"]) == 0
        with open(out / "sweep.csv") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            rows = list(reader)
        assert header == ["value", "l2_abs", "l2_rel", "linf", "epochs", "iters", "seconds", "status"]
        assert [r[0] for r in rows] == ["1", "2", "4"]

    def test_sampling_axis_takes_strategy_names(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, tiny_config(out))
        assert main(["sweep", cfg, "--axis", "sampling", "--values", "uniform,random"]) == 0
        with open(out / "sweep.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["value"] for r in rows] == ["uniform", "random"]

    def test_bad_axis_value_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path, tiny_config(tmp_path / "out"))
        assert main(["sweep", cfg, "--axis", "subspace_dim", "--values", "abc"]) == 2

    def test_failing_cell_recorded_and_continues(self, tmp_path):
        out = tmp_path / "out"
        doc = tiny_config(out)
        cfg = write_config(tmp_path, doc)
        # subspace_dim 0 fails config materialization inside the cell;
        # validated upfront, so this is a config error for the whole sweep
        assert main(["sweep", cfg, "--axis", "subspace_dim", "--values", "0,30"]) == 2


    @pytest.mark.parametrize("value", ["abc", "1.5", "0", "-1"])
    def test_bad_worker_count_is_config_error(self, tmp_path, capsys, monkeypatch, value):
        def no_work(*args, **kwargs):
            raise AssertionError("a sweep cell or worker pool was started")

        monkeypatch.setenv("SUBSPACEPDE_WORKERS", value)
        monkeypatch.setattr(cli, "ProcessPoolExecutor", no_work)
        monkeypatch.setattr(cli, "_run_sweep_cell", no_work)
        cfg = write_config(tmp_path, tiny_config(tmp_path / "out"))
        assert main(["sweep", cfg, "--axis", "subspace_dim", "--values", "25"]) == 2
        assert "SUBSPACEPDE_WORKERS" in capsys.readouterr().err


class TestListProblems:
    def test_lists_all_builtins_with_burgers_viscosity(self, capsys):
        assert main(["list-problems"]) == 0
        out = capsys.readouterr().out
        for name in (
            "helmholtz1d",
            "poisson2d",
            "parabolic1d",
            "boundary_layer1d",
            "nonlinear_helmholtz1d",
            "burgers1d",
        ):
            assert name in out
        assert "nu=0.01" in out

    def test_output_stable_across_invocations(self, capsys):
        main(["list-problems"])
        first = capsys.readouterr().out
        main(["list-problems"])
        second = capsys.readouterr().out
        assert first == second
