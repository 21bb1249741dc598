"""Human-readable rendering of expressions (round-trips with the DSL parser)."""

from __future__ import annotations

import math

from repro.expr import ast
from repro.expr.ast import Binary, Const, Expr, Ite, Select, Store, Unary, Var

_BINARY_SYMBOL = {
    ast.ADD: "+",
    ast.SUB: "-",
    ast.MUL: "*",
    ast.DIV: "/",
    ast.IDIV: "//",
    ast.MOD: "%",
    ast.LT: "<",
    ast.LE: "<=",
    ast.GT: ">",
    ast.GE: ">=",
    ast.EQ: "==",
    ast.NE: "!=",
    ast.AND: "&&",
    ast.OR: "||",
    ast.XOR: "^",
    ast.IMPLIES: "=>",
}

_FUNC_STYLE = {ast.MIN: "min", ast.MAX: "max"}

# Larger number binds tighter.
_PRECEDENCE = {
    ast.OR: 1,
    ast.IMPLIES: 1,
    ast.AND: 2,
    ast.XOR: 2,
    ast.EQ: 3,
    ast.NE: 3,
    ast.LT: 4,
    ast.LE: 4,
    ast.GT: 4,
    ast.GE: 4,
    ast.ADD: 5,
    ast.SUB: 5,
    ast.MUL: 6,
    ast.DIV: 6,
    ast.IDIV: 6,
    ast.MOD: 6,
}


def to_string(expr: Expr) -> str:
    """Render ``expr`` in the DSL's infix syntax."""
    return _render(expr, 0)


def _render(expr: Expr, parent_prec: int) -> str:
    if isinstance(expr, Const):
        return _render_const(expr)
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, Unary):
        return _render_unary(expr)
    if isinstance(expr, Binary):
        if expr.op in _FUNC_STYLE:
            name = _FUNC_STYLE[expr.op]
            return f"{name}({_render(expr.left, 0)}, {_render(expr.right, 0)})"
        prec = _PRECEDENCE[expr.op]
        symbol = _BINARY_SYMBOL[expr.op]
        text = f"{_render(expr.left, prec)} {symbol} {_render(expr.right, prec + 1)}"
        if prec < parent_prec:
            return f"({text})"
        return text
    if isinstance(expr, Ite):
        text = (
            f"ite({_render(expr.cond, 0)}, {_render(expr.then, 0)}, "
            f"{_render(expr.orelse, 0)})"
        )
        return text
    if isinstance(expr, Select):
        return f"{_render(expr.array, 9)}[{_render(expr.index, 0)}]"
    if isinstance(expr, Store):
        return (
            f"store({_render(expr.array, 0)}, {_render(expr.index, 0)}, "
            f"{_render(expr.value, 0)})"
        )
    return f"<{type(expr).__name__}>"


def _render_const(expr: Const) -> str:
    value = expr.value
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return "[" + ", ".join(str(v) for v in value) + "]"
    if isinstance(value, float) and not math.isfinite(value):
        return str(value)  # inf, -inf, nan: int() would raise
    if isinstance(value, float) and value == int(value) and abs(value) < 1e15:
        return f"{value:.1f}"
    return str(value)


def _render_unary(expr: Unary) -> str:
    inner = _render(expr.arg, 8)
    if expr.op == ast.NEG:
        return f"-{inner}"
    if expr.op == ast.NOT:
        return f"!{inner}"
    return f"{expr.op}({_render(expr.arg, 0)})"
