"""Expression grammar: parsing, precedence, evaluation, errors."""

import numpy as np
import pytest

from subspacepde.expressions import ExpressionError, compile_expression

XY = {"x": 0, "y": 1}
X = {"x": 0}


def ev(src, pts, columns=None):
    fn = compile_expression(src, columns or X)
    return fn(np.atleast_2d(pts))


class TestEvaluation:
    def test_literal(self):
        np.testing.assert_allclose(ev("2.5", [[0.0]]), [2.5])

    def test_scientific_literal(self):
        np.testing.assert_allclose(ev("1e-2", [[0.0]]), [0.01])
        np.testing.assert_allclose(ev("2.5E+3", [[0.0]]), [2500.0])

    def test_variable(self):
        np.testing.assert_allclose(ev("x", [[3.0], [4.0]]), [3.0, 4.0])

    def test_arithmetic(self):
        np.testing.assert_allclose(ev("1 + 2*x - x/2", [[2.0]]), [4.0])

    def test_power_right_associative(self):
        np.testing.assert_allclose(ev("2^3^2", [[0.0]]), [512.0])

    def test_power_precedence_over_unary_minus(self):
        # -x^2 parses as -(x^2)
        np.testing.assert_allclose(ev("-x^2", [[3.0]]), [-9.0])

    def test_unary_minus(self):
        np.testing.assert_allclose(ev("--x", [[5.0]]), [5.0])
        np.testing.assert_allclose(ev("-x + 1", [[2.0]]), [-1.0])

    def test_functions(self):
        pts = np.array([[0.3]])
        np.testing.assert_allclose(ev("sin(x)", pts), np.sin(0.3))
        np.testing.assert_allclose(ev("cos(x)", pts), np.cos(0.3))
        np.testing.assert_allclose(ev("exp(-x)", pts), np.exp(-0.3))

    def test_two_variables(self):
        got = ev("sin(3.141592653589793*x)*sin(3.141592653589793*y)", [[0.5, 0.5]], XY)
        np.testing.assert_allclose(got, [1.0], atol=1e-12)

    def test_parentheses(self):
        np.testing.assert_allclose(ev("(1 + x)*(1 - x)", [[2.0]]), [-3.0])

    def test_constant_broadcasts_over_points(self):
        got = ev("3", np.zeros((5, 1)))
        assert got.shape == (5,)
        np.testing.assert_allclose(got, 3.0)

    def test_leading_and_inner_whitespace(self):
        np.testing.assert_allclose(ev(" x", [[3.0]]), [3.0])
        np.testing.assert_allclose(ev("1 +\n 2", [[0.0]]), [3.0])
        np.testing.assert_allclose(ev("\t2*x", [[3.0]]), [6.0])

    def test_temporal_variable(self):
        got = ev("exp(-t)*sin(x)", [[np.pi / 2, 0.0]], {"x": 0, "t": 1})
        np.testing.assert_allclose(got, [1.0], atol=1e-12)


class TestErrors:
    def test_unknown_variable(self):
        with pytest.raises(ExpressionError, match="unknown variable"):
            compile_expression("z + 1", X)

    def test_unknown_function(self):
        with pytest.raises(ExpressionError, match="unknown function"):
            compile_expression("tan(x)", X)

    def test_trailing_input(self):
        # Python versions place the error differently, so the number is not pinned.
        with pytest.raises(ExpressionError, match=r"syntax error at position \d+"):
            compile_expression("1 2", X)

    def test_unbalanced_parens(self):
        with pytest.raises(ExpressionError):
            compile_expression("(1 + x", X)

    def test_bad_character(self):
        with pytest.raises(ExpressionError, match="unexpected character"):
            compile_expression("x @ 2", X)

    def test_empty_expression(self):
        with pytest.raises(ExpressionError):
            compile_expression("", X)

    @pytest.mark.parametrize(
        "src",
        ["x**2", "0x10", "1_000", "1j", "True", "x if x else 1", "not x", "x // 2", "x.real",
         "sin(x, x)", "sin(x=1)", "__import__", "[x]", "(sin)(x)", "07"],
    )
    def test_python_only_syntax_rejected(self, src):
        # Python's parser reads the grammar, but only the grammar's nodes pass;
        # "07" is refused by Python's own grammar (leading-zero integer).
        with pytest.raises(ExpressionError):
            compile_expression(src, X)

    def test_position_counts_in_the_users_string(self):
        # "^" becomes the two-character "**" before parsing.
        with pytest.raises(ExpressionError, match="unknown variable 'z' at position 6"):
            compile_expression("x^2 + z", X)

    def test_deep_nesting_is_an_expression_error(self):
        with pytest.raises(ExpressionError, match="nests too deeply"):
            compile_expression("-" * 5000 + "x", X)

    def test_variable_not_on_domain(self):
        # y parses (it is in the grammar) but this domain only binds x
        fn = compile_expression("y", X)
        with pytest.raises(ExpressionError, match="not defined"):
            fn(np.array([[1.0]]))
