"""Tests for variable utilities and the printer."""

import pytest

from repro.expr import ops as x
from repro.expr.ast import Const, Var
from repro.expr.evaluator import evaluate
from repro.expr.printer import to_string
from repro.expr.types import ArrayType, BOOL, INT
from repro.expr.variables import (
    free_variables,
    free_variables_of,
    node_count,
    substitute,
)

I = Var("i", INT)
J = Var("j", INT)
B = Var("b", BOOL)


class TestFreeVariables:
    def test_single_variable(self):
        assert list(free_variables(I)) == ["i"]

    def test_composite(self):
        expr = x.land(x.lt(I, J), B)
        assert sorted(free_variables(expr)) == ["b", "i", "j"]

    def test_constant_has_none(self):
        assert free_variables(x.lift(5)) == {}

    def test_duplicates_counted_once(self):
        expr = x.add(I, x.add(I, I))
        assert list(free_variables(expr)) == ["i"]

    def test_union_over_many(self):
        result = free_variables_of([I, J, x.lt(I, J)])
        assert sorted(result) == ["i", "j"]


class TestSubstitute:
    def test_constant_binding_folds(self):
        expr = x.add(I, J)
        result = substitute(expr, {"i": x.lift(2), "j": x.lift(3)})
        assert isinstance(result, Const)
        assert result.const_value() == 5

    def test_partial_binding(self):
        expr = x.add(I, J)
        result = substitute(expr, {"i": x.lift(0)})
        # add(0, j) folds to j by identity.
        assert result is J

    def test_expression_binding(self):
        expr = x.lt(I, 10)
        result = substitute(expr, {"i": x.add(J, 1)})
        assert evaluate(result, {"j": 8}) is True
        assert evaluate(result, {"j": 10}) is False

    def test_untouched_expression_returned_identically(self):
        expr = x.add(I, J)
        assert substitute(expr, {"z": x.lift(1)}) is expr

    def test_ite_condition_folds(self):
        expr = x.ite(B, I, J)
        result = substitute(expr, {"b": x.lift(True)})
        assert result is I

    def test_select_folds_through_substitution(self):
        arr = Var("a", ArrayType(INT, 3))
        expr = x.select(arr, I)
        result = substitute(expr, {"a": x.lift((7, 8, 9)), "i": x.lift(2)})
        assert result.const_value() == 9


class TestNodeCount:
    def test_leaf(self):
        assert node_count(I) == 1

    def test_shared_nodes_counted_once(self):
        shared = x.add(I, J)
        expr = x.add(shared, shared)
        assert node_count(expr) == 4  # expr, shared, i, j


class TestPrinter:
    @pytest.mark.parametrize(
        "expr,expected",
        [
            (x.lift(True), "true"),
            (x.lift(False), "false"),
            (x.lift(3), "3"),
            (x.lift(2.0), "2.0"),
            (x.lift((1, 2)), "[1, 2]"),
            (I, "i"),
            (x.add(I, J), "i + j"),
            (x.neg(I), "-i"),
            (x.lnot(B), "!b"),
            (x.minimum(I, J), "min(i, j)"),
            (x.absolute(I), "abs(i)"),
            (x.lt(I, J), "i < j"),
            (x.land(B, B), "b"),
        ],
    )
    def test_rendering(self, expr, expected):
        assert to_string(expr) == expected

    def test_precedence_parentheses(self):
        expr = x.mul(x.add(I, J), 2)
        assert to_string(expr) == "(i + j) * 2"

    def test_no_redundant_parentheses(self):
        expr = x.add(x.mul(I, 2), J)
        assert to_string(expr) == "i * 2 + j"

    def test_ite_rendering(self):
        assert to_string(x.ite(B, I, J)) == "ite(b, i, j)"

    def test_select_rendering(self):
        arr = Var("a", ArrayType(INT, 3))
        assert to_string(x.select(arr, I)) == "a[i]"

    def test_store_rendering(self):
        arr = Var("a", ArrayType(INT, 3))
        assert to_string(x.store(arr, I, J)) == "store(a, i, j)"

    def test_division_by_zero_constant_renders(self):
        assert to_string(x.div(Const(1), Const(0))) == "inf"

    def test_nan_constant_renders(self):
        assert repr(Const(float("nan"))) == "<Expr nan>"
