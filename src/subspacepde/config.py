"""Run configuration: JSON schema, validation, and materialization.

A config names a builtin problem (or defines a custom linear one through
the expression grammar), the partition, sampling, network and training
settings, optional nonlinear iteration settings, the evaluation grid and
output paths.  Validation happens before any computation and rejects
unknown keys; errors carry the offending field path.
"""

from __future__ import annotations

import json
import math
import numbers
import operator
import re
from dataclasses import dataclass

from .expressions import ExpressionError, compile_expression
from .geometry import SPATIAL, TEMPORAL, DomainSpec, PartitionSpec
from .network import NetworkConfig
from .problems import BUILTIN_NAMES, LinearTerm, ProblemSpec, builtin
from .solver import NonlinearConfig, SamplingConfig
from .training import TrainingConfig


class ConfigError(ValueError):
    """Invalid run configuration; message includes the field path."""


_COUNTS = {"type": "array", "items": {"type": "integer", "minimum": 1}, "minItems": 1}
# Sampling counts include both endpoints of every axis.
_SAMPLE_COUNTS = {"type": "array", "items": {"type": "integer", "minimum": 2}, "minItems": 1}

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
            # networks propagate derivatives up to order 2
            "items": {"type": "integer", "minimum": 0, "maximum": 2},
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
                "counts": _SAMPLE_COUNTS,
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
            "properties": {"counts": _SAMPLE_COUNTS},
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
    evaluation: tuple[int, ...] | None
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


_TYPES = dict(object=dict, array=list, string=str, boolean=bool, number=numbers.Number, integer=int)
# keyword -> (the type it constrains, test that the value breaks it, message)
_RULES = {
    "minimum": ("number", operator.lt, "is less than the minimum of"),
    "maximum": ("number", operator.gt, "is greater than the maximum of"),
    "exclusiveMinimum": ("number", operator.le, "is less than or equal to the minimum of"),
    "exclusiveMaximum": ("number", operator.ge, "is greater than or equal to the maximum of"),
    "minItems": ("array", lambda v, n: len(v) < n, "has fewer items than"),
    "maxItems": ("array", lambda v, n: len(v) > n, "has more items than"),
    "minLength": ("string", lambda v, n: len(v) < n, "is shorter than"),
    "pattern": ("string", lambda v, p: not re.search(p, v), "does not match"),
}
_KEYWORDS = {
    "$schema", "type", "enum", "oneOf", "items", "required", "properties", "additionalProperties", *_RULES
}


def _is_type(value, names) -> bool:
    # As in draft 2020-12: a bool is not a number, and 2.0 is an integer.
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    return any(
        isinstance(value, bool) == (name == "boolean") and isinstance(value, _TYPES[name])
        for name in ([names] if isinstance(names, str) else names)
    )


def _schema_errors(value, schema: dict, path: tuple = ()):
    """Yield (path, message) per broken rule; only the draft 2020-12 keywords SCHEMA uses exist."""
    if schema.keys() - _KEYWORDS or schema.get("additionalProperties", False) is not False:
        raise NotImplementedError(f"schema keywords {sorted(schema)}")
    if isinstance(value, float) and not math.isfinite(value):
        # not JSON, and NaN passes every numeric bound
        yield path, f"non-finite number {json.dumps(value)} is not allowed"
    if "type" in schema and not _is_type(value, schema["type"]):
        yield path, f"{value!r} is not of type {schema['type']!r}"
    if "enum" in schema and value not in schema["enum"]:
        yield path, f"{value!r} is not one of {schema['enum']!r}"
    for keyword, (kind, broken, text) in _RULES.items():
        if keyword in schema and _is_type(value, kind) and broken(value, schema[keyword]):
            yield path, f"{value!r} {text} {schema[keyword]!r}"
    if "oneOf" in schema:
        failures = [list(_schema_errors(value, sub, path)) for sub in schema["oneOf"]]
        valid = failures.count([])
        # With no branch valid, the one branch of the value's type says why.
        typed = [f for f, sub in zip(failures, schema["oneOf"]) if _is_type(value, sub.get("type", ()))]
        if valid == 0 and len(typed) == 1:
            yield from typed[0]
        elif valid != 1:
            yield path, f"{value!r} is valid under {valid} of the given schemas, not one"
    if "items" in schema and isinstance(value, list):
        for i, item in enumerate(value):
            yield from _schema_errors(item, schema["items"], (*path, i))
    if isinstance(value, dict):
        properties = schema.get("properties", {})
        for key in schema.get("required", ()):
            if key not in value:
                yield path, f"{key!r} is a required property"
        extra = [key for key in value if key not in properties]
        if extra and "additionalProperties" in schema:
            yield path, f"additional properties are not allowed: {', '.join(map(repr, extra))}"
        for key, sub in properties.items():
            if key in value:
                yield from _schema_errors(value[key], sub, (*path, key))


def from_dict(doc: dict) -> RunConfig:
    """Validate a raw config document and materialize every component."""
    error = min(_schema_errors(doc, SCHEMA), key=lambda e: len(e[0]), default=None)
    if error is not None:
        path, message = error
        raise ConfigError(f"{'.'.join(map(str, path)) or '<root>'}: {message}")

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
    if len(sampling_doc["counts"]) != dim:
        raise ConfigError(f"sampling.counts: needs {dim} entries")
    sampling = SamplingConfig(
        interior_counts=tuple(sampling_doc["counts"]),
        **{key: sampling_doc[key] for key in ("strategy", "seed") if key in sampling_doc},
    )

    network_doc = doc["network"]
    try:
        network = NetworkConfig(
            input_dim=dim,
            hidden_widths=tuple(network_doc.get("hidden_widths", ())),
            subspace_dim=network_doc["subspace_dim"],
            **{key: network_doc[key] for key in ("init_range",) if key in network_doc},
        )
    except ValueError as exc:
        raise ConfigError(f"network: {exc}") from exc
    init_mode = network_doc.get("init", "glorot")

    training_doc = doc.get("training", {})
    try:
        training = TrainingConfig(**{key: value for key, value in training_doc.items() if key != "log"})
    except ValueError as exc:
        raise ConfigError(f"training: {exc}") from exc

    nonlinear = None
    if problem.nonlinear is not None:
        try:
            nonlinear = NonlinearConfig(**doc.get("nonlinear", {}))
        except ValueError as exc:
            raise ConfigError(f"nonlinear: {exc}") from exc
    elif "nonlinear" in doc:
        raise ConfigError(f"nonlinear: problem {problem.name!r} has no nonlinear term")

    evaluation = tuple(doc["evaluation"]["counts"]) if "evaluation" in doc else None
    if evaluation is not None and len(evaluation) != dim:
        raise ConfigError(f"evaluation.counts: needs {dim} entries")

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
