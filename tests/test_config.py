"""Config schema checking: agreement with a reference validator, error paths, imports."""

import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from subspacepde.config import SCHEMA, ConfigError, _schema_errors, from_dict

ROOT = Path(__file__).resolve().parents[1]

CUSTOM_PROBLEM = {
    "name": "advection_custom",
    "domain": {"axes": [[0.0, 1.0], [0.0, 0.5]], "roles": ["spatial", "temporal"]},
    "linear_terms": [
        {"coefficient": 1, "derivative": [0, 1]},
        {"coefficient": "0.5 * x", "derivative": [1, 0]},
    ],
    "source": "0",
    "boundary": "0",
    "initial": "sin(x)",
    "exact": "sin(x - t)",
    "continuity_orders": [1, 0],
}

# Values of every JSON type, on and next to the bounds and enums of SCHEMA.
REPLACEMENTS = (
    None, True, False, 0, 1, -1, 2, 3, 2.0, 2.5, 0.5, 1.0, 0.0, -0.5, 1e-3,
    "", "x", "system.npz", "uniform", "random", "glorot", "newton", "picard",
    "helmholtz1d", "spatial", "temporal", "sin(x)",
    [], [0], [1], [2], [3, 3], [True], [0.0, 1.0], [[0.0, 1.0]], ["spatial"],
    {}, {"counts": [2]}, {"coefficient": 1, "derivative": [2]}, {"axes": [[0.0, 1.0]]},
)


def base_documents(workloads):
    """The shipped configs, the benchmark workloads' configs and a custom problem."""
    docs = [json.loads(p.read_text()) for p in sorted((ROOT / "configs").glob("*.json"))]
    docs += [w.config(202) for w in workloads.values()]
    custom = copy.deepcopy(docs[-1])
    custom["problem"] = copy.deepcopy(CUSTOM_PROBLEM)
    custom.pop("nonlinear", None)
    return docs + [custom]


def _containers(node, path=()):
    if isinstance(node, (dict, list)):
        yield path, node
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _containers(child, (*path, key))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def mutations(doc):
    """The document itself, then every single-field change: set a value, delete it, add a key."""
    yield doc
    for path, node in list(_containers(doc)):
        keys = list(node) if isinstance(node, dict) else range(len(node))
        for key in keys:
            for value in REPLACEMENTS:
                out = copy.deepcopy(doc)
                _at(out, path)[key] = value
                yield out
            out = copy.deepcopy(doc)
            del _at(out, path)[key]
            yield out
        if isinstance(node, dict):
            out = copy.deepcopy(doc)
            _at(out, path)["unknown_key"] = 1
            yield out


def test_checker_agrees_with_draft_2020_12_validator(bench_workloads):
    jsonschema = pytest.importorskip("jsonschema")
    validator = jsonschema.Draft202012Validator(SCHEMA)
    decisions = {True: 0, False: 0}
    for base in base_documents(bench_workloads):
        for doc in mutations(base):
            errors = list(_schema_errors(doc, SCHEMA))
            assert (not errors) == validator.is_valid(doc), (doc, errors)
            decisions[not errors] += 1
    # both decisions are exercised many times over
    assert decisions[True] > 500 and decisions[False] > 5000, decisions


def test_reported_path_is_the_shallowest_error():
    doc = json.loads((ROOT / "configs" / "helmholtz1d.json").read_text())
    doc["sampling"]["counts"] = [1]
    doc["network"]["extra"] = 1
    with pytest.raises(ConfigError, match=r"^network: additional properties are not allowed: 'extra'$"):
        from_dict(doc)
    del doc["network"]
    with pytest.raises(ConfigError, match=r"^<root>: 'network' is a required property$"):
        from_dict(doc)


def test_custom_problem_error_names_the_nested_field():
    # no branch of the problem's oneOf holds: the object branch says why
    doc = json.loads((ROOT / "configs" / "helmholtz1d.json").read_text())
    doc["problem"] = copy.deepcopy(CUSTOM_PROBLEM)
    doc["problem"]["linear_terms"][1]["derivative"] = [3, 0]
    with pytest.raises(ConfigError, match=r"^problem\.linear_terms\.1\.derivative\.0: 3 is greater than"):
        from_dict(doc)


def test_non_finite_number_inside_custom_problem_names_field():
    doc = json.loads((ROOT / "configs" / "helmholtz1d.json").read_text())
    doc["problem"] = copy.deepcopy(CUSTOM_PROBLEM)
    doc["problem"]["domain"]["axes"][1][1] = float("inf")
    with pytest.raises(ConfigError, match=r"^problem\.domain\.axes\.1\.1: non-finite number Infinity "):
        from_dict(doc)


@pytest.mark.parametrize(
    "value, kind, valid",
    [(True, "number", False), (True, "integer", False), (True, "boolean", True), (2.0, "integer", True),
     (2.5, "integer", False), (1, "boolean", False), (1, "number", True), ([], "object", False)],
)
def test_types_follow_draft_2020_12(value, kind, valid):
    assert (not any(_schema_errors(value, {"type": kind}))) == valid


def test_unimplemented_keyword_is_an_error():
    with pytest.raises(NotImplementedError, match="uniqueItems"):
        list(_schema_errors([1, 1], {"type": "array", "uniqueItems": True}))


def test_solve_process_imports_no_validator_or_process_pool():
    code = """
import sys
import subspacepde.cli
from subspacepde.config import from_dict, load_config
import workloads
for workload in workloads.WORKLOADS.values():
    from_dict(workload.config(202))
for path in sys.argv[1:]:
    load_config(path)
print(" ".join(m for m in ("jsonschema", "multiprocessing", "concurrent.futures") if m in sys.modules))
"""
    configs = [str(p) for p in sorted((ROOT / "configs").glob("*.json"))]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")])}
    result = subprocess.run(
        [sys.executable, "-c", code, *configs], capture_output=True, text=True, env=env, check=True
    )
    assert result.stdout.strip() == ""
