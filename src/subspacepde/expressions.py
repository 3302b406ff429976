"""Restricted expression grammar for problems defined in config files.

Supported: numeric literals, + - * / ^ (right-associative power), unary
sign, parentheses, the functions sin/cos/exp, and the variables x, y, t.
Once ``^`` reads as ``**`` these are Python's precedence and associativity,
so an expression is parsed by :mod:`ast` and accepted only if every node is
on a whitelist; config text is never executed.  Python spellings outside
the grammar are rejected: ``**``, hex, underscore and complex literals,
``True``, keywords, attributes, subscripts, and integer literals with
leading zeros such as ``07``, which Python's grammar refuses.  Accepted
expressions compile to nested closures applied to point arrays.
"""

from __future__ import annotations

import ast
import operator
import re
from typing import Callable, Mapping

import numpy as np
from numpy.typing import NDArray

Array = NDArray[np.float64]
Evaluator = Callable[[Mapping[str, Array]], Array]

FUNCTIONS: dict[str, Callable[[Array], Array]] = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
}

VARIABLES = ("x", "y", "t")

# A character outside the grammar, or the second star of a raw ``**``.
_BAD_CHARACTER = re.compile(r"[^0-9A-Za-z_.+\-*/^()\s]|(?<=\*)\*")
_NUMBER = re.compile(r"([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?")
_BINARY = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
           ast.Div: operator.truediv, ast.Pow: operator.pow}
_UNARY = {ast.UAdd: operator.pos, ast.USub: operator.neg}


class ExpressionError(ValueError):
    """Raised for syntax or name errors, with the offending position."""


def _lower(node: ast.expr, source: str, columns: list[int]) -> Evaluator:
    """Check ``node`` against the whitelist and return its evaluator."""
    pos = columns[node.col_offset]
    if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
        binary = _BINARY[type(node.op)]
        lhs, rhs = _lower(node.left, source, columns), _lower(node.right, source, columns)
        return lambda values: binary(lhs(values), rhs(values))
    if isinstance(node, ast.UnaryOp) and type(node.op) in _UNARY:
        unary, operand = _UNARY[type(node.op)], _lower(node.operand, source, columns)
        return lambda values: unary(operand(values))
    if isinstance(node, ast.Constant):
        literal = source[node.col_offset : node.end_col_offset]
        if not _NUMBER.fullmatch(literal):
            raise ExpressionError(f"unsupported literal {literal!r} at position {pos}")
        value = np.float64(float(literal))  # IEEE semantics for 0/0 etc., not ZeroDivisionError
        return lambda values: value
    if isinstance(node, ast.Name):
        name = node.id
        if name not in VARIABLES:
            raise ExpressionError(f"unknown variable {name!r} at position {pos}")

        def variable(values: Mapping[str, Array]) -> Array:
            if name not in values:
                raise ExpressionError(f"variable {name!r} is not defined on this domain")
            return values[name]

        return variable
    # A parenthesized callee, as in ``(sin)(x)``, starts after its call.
    callee = node.func if isinstance(node, ast.Call) else None
    if isinstance(callee, ast.Name) and callee.col_offset == node.col_offset:
        name = callee.id
        if name not in FUNCTIONS:
            raise ExpressionError(f"unknown function {name!r} at position {pos}")
        if len(node.args) != 1 or node.keywords:
            raise ExpressionError(f"function {name!r} takes one argument at position {pos}")
        function, argument = FUNCTIONS[name], _lower(node.args[0], source, columns)
        return lambda values: function(argument(values))
    raise ExpressionError(f"unsupported syntax at position {pos}")


def compile_expression(src: str, variable_columns: Mapping[str, int]) -> Callable[[Array], Array]:
    """Parse once, return a vectorized point function.

    ``variable_columns`` maps allowed variable names to point-array columns;
    unknown variables fail at parse time when possible, otherwise at call
    time (a variable valid in the grammar but absent on this domain).
    """
    if bad := _BAD_CHARACTER.search(src):
        raise ExpressionError(f"unexpected character {bad.group()!r} at position {bad.start()}")
    # One line without indentation; source column c is position columns[c] of src.
    lead = len(src) - len(src.lstrip())
    body = re.sub(r"\s", " ", src[lead:])
    columns = [lead + i for i, ch in enumerate(body) for _ in range(1 + (ch == "^"))] + [len(src)]
    source = body.replace("^", "**")
    try:
        evaluate = _lower(ast.parse(source, mode="eval").body, source, columns)
    except SyntaxError as exc:
        pos = columns[min(max((exc.offset or 1) - 1, 0), len(columns) - 1)]
        raise ExpressionError(f"syntax error at position {pos}: {exc.msg}") from None
    except (RecursionError, MemoryError):  # how Python's parser reports too deep a tree
        raise ExpressionError("expression nests too deeply") from None

    def fn(points: Array) -> Array:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        values = {name: pts[:, col] for name, col in variable_columns.items()}
        out = evaluate(values)
        return np.broadcast_to(np.asarray(out, dtype=float), (pts.shape[0],)).copy()

    return fn
