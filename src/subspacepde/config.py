"""Run configuration: JSON schema, validation, and materialization.

A config names a builtin problem (or defines a custom linear one through
the expression grammar), the partition, sampling, network and training
settings, optional nonlinear iteration settings, the evaluation grid and
output paths.  Validation happens before any computation and rejects
unknown keys; errors carry the offending field path.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import jsonschema

from .expressions import ExpressionError, compile_expression
from .geometry import SPATIAL, TEMPORAL, DomainSpec, PartitionSpec
from .network import NetworkConfig
from .problems import BUILTIN_NAMES, LinearTerm, ProblemSpec, builtin
from .solver import EvaluationSpec, NonlinearConfig, SamplingConfig
from .training import TrainingConfig


class ConfigError(ValueError):
    """Invalid run configuration; message includes the field path."""


_COUNTS = {"type": "array", "items": {"type": "integer", "minimum": 1}, "minItems": 1}

_CUSTOM_PROBLEM_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["name", "domain", "linear_terms", "source", "boundary"],
    "properties": {
        "name": {"type": "string", "minLength": 1},
        "domain": {
            "type": "object",
            "additionalProperties": False,
            "required": ["axes"],
            "properties": {
                "axes": {
                    "type": "array",
                    "minItems": 1,
                    "items": {
                        "type": "array",
                        "items": {"type": "number"},
                        "minItems": 2,
                        "maxItems": 2,
                    },
                },
                "roles": {
                    "type": "array",
                    "items": {"enum": [SPATIAL, TEMPORAL]},
                },
            },
        },
        "linear_terms": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "additionalProperties": False,
                "required": ["coefficient", "derivative"],
                "properties": {
                    "coefficient": {"type": ["number", "string"]},
                    "derivative": {
                        "type": "array",
                        "items": {"type": "integer", "minimum": 0, "maximum": 2},
                    },
                },
            },
        },
        "source": {"type": "string"},
        "boundary": {"type": "string"},
        "initial": {"type": "string"},
        "exact": {"type": "string"},
        "continuity_orders": {
            "type": "array",
            "items": {"type": "integer", "minimum": 0},
        },
    },
}

SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "additionalProperties": False,
    "required": ["problem", "partition", "sampling", "network"],
    "properties": {
        "problem": {
            "oneOf": [{"enum": list(BUILTIN_NAMES)}, _CUSTOM_PROBLEM_SCHEMA]
        },
        "partition": {
            "type": "object",
            "additionalProperties": False,
            "required": ["counts"],
            "properties": {"counts": _COUNTS},
        },
        "sampling": {
            "type": "object",
            "additionalProperties": False,
            "required": ["counts"],
            "properties": {
                "strategy": {"enum": ["uniform", "gauss", "random"]},
                "counts": _COUNTS,
                "boundary_counts": _COUNTS,
                "interface_counts": _COUNTS,
                "seed": {"type": "integer", "minimum": 0},
            },
        },
        "network": {
            "type": "object",
            "additionalProperties": False,
            "required": ["subspace_dim"],
            "properties": {
                "hidden_widths": {
                    "type": "array",
                    "items": {"type": "integer", "minimum": 1},
                },
                "subspace_dim": {"type": "integer", "minimum": 1},
                "init": {"enum": ["glorot", "uniform_range"]},
                "init_range": {"type": "number", "minimum": 0},
            },
        },
        "training": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "learning_rate": {"type": "number", "exclusiveMinimum": 0},
                "max_epochs": {"type": "integer", "minimum": 0},
                "rel_tol": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
                "seed": {"type": "integer", "minimum": 0},
                "epochs_zero": {"type": "boolean"},
                "log": {"type": "boolean"},
            },
        },
        "nonlinear": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "method": {"enum": ["picard", "newton"]},
                "max_iters": {"type": "integer", "minimum": 1},
                "tol": {"type": "number", "exclusiveMinimum": 0},
                "picard_warmup_iters": {"type": "integer", "minimum": 0},
            },
        },
        "evaluation": {
            "type": "object",
            "additionalProperties": False,
            "required": ["counts"],
            "properties": {"counts": _COUNTS},
        },
        "output_dir": {"type": "string", "minLength": 1},
        "dump_system": {"type": "string", "pattern": "\\.npz$"},
    },
}


@dataclass
class RunConfig:
    """A validated, materialized run configuration."""

    problem: ProblemSpec
    partition: PartitionSpec
    sampling: SamplingConfig
    network: NetworkConfig
    init_mode: str
    training: TrainingConfig
    nonlinear: NonlinearConfig | None
    evaluation: EvaluationSpec | None
    output_dir: str
    dump_system: str | None
    training_log: bool
    raw: dict


def _variable_columns(domain: DomainSpec) -> dict[str, int]:
    spatial_names = ["x", "y"]
    columns: dict[str, int] = {}
    spatial_seen = 0
    for axis, role in enumerate(domain.axis_roles):
        if role == TEMPORAL:
            columns["t"] = axis
        else:
            if spatial_seen >= len(spatial_names):
                raise ConfigError(
                    "problem.domain: the expression grammar names at most two spatial axes (x, y)"
                )
            columns[spatial_names[spatial_seen]] = axis
            spatial_seen += 1
    return columns


def _build_custom_problem(doc: dict) -> ProblemSpec:
    axes = [tuple(map(float, pair)) for pair in doc["domain"]["axes"]]
    roles = doc["domain"].get("roles", [SPATIAL] * len(axes))
    if len(roles) != len(axes):
        raise ConfigError("problem.domain.roles: must match the number of axes")
    try:
        domain = DomainSpec(tuple(axes), tuple(roles))
    except ValueError as exc:
        raise ConfigError(f"problem.domain: {exc}") from exc

    columns = _variable_columns(domain)

    def compiled(field: str, src: str):
        try:
            return compile_expression(src, columns)
        except ExpressionError as exc:
            raise ConfigError(f"problem.{field}: {exc}") from exc

    terms = []
    for i, term in enumerate(doc["linear_terms"]):
        coef = term["coefficient"]
        if isinstance(coef, str):
            coef = compiled(f"linear_terms[{i}].coefficient", coef)
        alpha = tuple(term["derivative"])
        if len(alpha) != domain.dim:
            raise ConfigError(
                f"problem.linear_terms[{i}].derivative: needs {domain.dim} entries"
            )
        try:
            terms.append(LinearTerm(coef, alpha))
        except ValueError as exc:
            raise ConfigError(f"problem.linear_terms[{i}]: {exc}") from exc

    initial = compiled("initial", doc["initial"]) if "initial" in doc else None
    if domain.temporal_axis is not None and initial is None:
        raise ConfigError("problem.initial: required for a domain with a temporal axis")
    exact = compiled("exact", doc["exact"]) if "exact" in doc else None
    continuity = doc.get("continuity_orders")
    if continuity is not None and len(continuity) != domain.dim:
        raise ConfigError("problem.continuity_orders: needs one entry per axis")

    try:
        return ProblemSpec(
            name=doc["name"],
            domain=domain,
            linear_terms=tuple(terms),
            source=compiled("source", doc["source"]),
            boundary=compiled("boundary", doc["boundary"]),
            initial=initial,
            exact=exact,
            continuity_orders=tuple(continuity) if continuity is not None else None,
        )
    except ValueError as exc:
        raise ConfigError(f"problem: {exc}") from exc


def from_dict(doc: dict) -> RunConfig:
    """Validate a raw config document and materialize every component."""
    validator = jsonschema.Draft202012Validator(SCHEMA)
    errors = sorted(validator.iter_errors(doc), key=lambda e: list(e.absolute_path))
    if errors:
        err = jsonschema.exceptions.best_match(errors)
        path = ".".join(str(p) for p in err.absolute_path) or "<root>"
        raise ConfigError(f"{path}: {err.message}")

    problem_doc = doc["problem"]
    problem = builtin(problem_doc) if isinstance(problem_doc, str) else _build_custom_problem(problem_doc)
    dim = problem.dim

    counts = doc["partition"]["counts"]
    if len(counts) != dim:
        raise ConfigError(
            f"partition.counts: needs {dim} entries for problem {problem.name!r}, got {len(counts)}"
        )
    partition_spec = PartitionSpec(tuple(counts))

    sampling_doc = doc["sampling"]
    for key in ("counts", "boundary_counts", "interface_counts"):
        if key in sampling_doc and len(sampling_doc[key]) != dim:
            raise ConfigError(f"sampling.{key}: needs {dim} entries")
    if any(c < 2 for c in sampling_doc["counts"]):
        raise ConfigError("sampling.counts: per-axis counts must be >= 2")
    sampling = SamplingConfig(
        interior_counts=tuple(sampling_doc["counts"]),
        strategy=sampling_doc.get("strategy", "uniform"),
        boundary_counts=tuple(sampling_doc["boundary_counts"]) if "boundary_counts" in sampling_doc else None,
        interface_counts=tuple(sampling_doc["interface_counts"]) if "interface_counts" in sampling_doc else None,
        seed=sampling_doc.get("seed", 202),
    )

    network_doc = doc["network"]
    try:
        network = NetworkConfig(
            input_dim=dim,
            hidden_widths=tuple(network_doc.get("hidden_widths", ())),
            subspace_dim=network_doc["subspace_dim"],
            init_range=network_doc.get("init_range", 1.0),
        )
    except ValueError as exc:
        raise ConfigError(f"network: {exc}") from exc
    init_mode = network_doc.get("init", "glorot")

    training_doc = doc.get("training", {})
    try:
        training = TrainingConfig(
            learning_rate=training_doc.get("learning_rate", 0.001),
            max_epochs=training_doc.get("max_epochs", 5000),
            rel_tol=training_doc.get("rel_tol", 1e-3),
            seed=training_doc.get("seed", 202),
            epochs_zero=training_doc.get("epochs_zero", False),
        )
    except ValueError as exc:
        raise ConfigError(f"training: {exc}") from exc

    nonlinear = None
    if problem.nonlinear is not None:
        nl_doc = doc.get("nonlinear", {})
        try:
            nonlinear = NonlinearConfig(
                method=nl_doc.get("method", "picard"),
                max_iters=nl_doc.get("max_iters", 20),
                tol=nl_doc.get("tol", 1e-6),
                picard_warmup_iters=nl_doc.get("picard_warmup_iters", 2),
            )
        except ValueError as exc:
            raise ConfigError(f"nonlinear: {exc}") from exc
    elif "nonlinear" in doc:
        raise ConfigError(f"nonlinear: problem {problem.name!r} has no nonlinear term")

    evaluation = None
    if "evaluation" in doc:
        eval_counts = doc["evaluation"]["counts"]
        if len(eval_counts) != dim:
            raise ConfigError(f"evaluation.counts: needs {dim} entries")
        evaluation = EvaluationSpec(counts=tuple(eval_counts))

    return RunConfig(
        problem=problem,
        partition=partition_spec,
        sampling=sampling,
        network=network,
        init_mode=init_mode,
        training=training,
        nonlinear=nonlinear,
        evaluation=evaluation,
        output_dir=doc.get("output_dir", "."),
        dump_system=doc.get("dump_system"),
        training_log=training_doc.get("log", False),
        raw=doc,
    )


def load_config(path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    return from_dict(doc)
