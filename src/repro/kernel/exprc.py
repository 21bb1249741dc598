"""Compile expression DAGs to Python closures.

:func:`compile_expr` turns an :class:`~repro.expr.ast.Expr` DAG into a
``fn(env) -> value`` closure observably equivalent to
:func:`repro.expr.evaluator.evaluate` under every environment:

* the same lazy connectives — AND/OR/IMPLIES short-circuit, and the
  unselected ITE branch is never computed (no spurious division-by-zero),
* the same per-node result coercion (``coerce_value`` through the node's
  ``ty``, specialized to ``bool``/``int``/``float`` for scalar types),
* the same errors with the same messages (``EvalError`` for unbound
  variables and out-of-range array indices),
* the same per-call sharing: every node with more than one parent edge
  gets a memo slot, filled on its first *successful* evaluation and
  emptied when the next top-level call starts, so a shared sub-DAG is
  computed at most once per call.  A node that raises stores nothing and
  raises again on its next use, as under the evaluator, which never
  memoizes an exception.  No value survives into the next call.

Trees without sharing — chart guards and actions — compile to plain
closures with no memo.  :class:`ExprCompiler` is the node-level compiler;
:mod:`repro.solverc.distc` drives it to compile a branch-distance
objective and all of its atom operands against one memo.  A closure with
a memo serves one call at a time (it is not reentrant).  Any node type
this compiler does not recognize compiles to a closure that defers the
whole subtree to the interpreter, keeping equivalence trivial.
"""

from __future__ import annotations

import math
import operator
from typing import Callable, Dict, List, Mapping, Set, Tuple

from repro.errors import EvalError
from repro.expr import ast, semantics
from repro.expr.ast import Binary, Const, Expr, Ite, Select, Store, Unary, Var
from repro.expr.evaluator import evaluate
from repro.expr.types import Type, coerce_value

CompiledExpr = Callable[[Mapping[str, object]], object]

#: Marks an empty memo slot.
_UNSET = object()

_UNARY = {
    ast.NEG: operator.neg,
    ast.NOT: operator.not_,
    ast.ABS: abs,
    ast.FLOOR: math.floor,
    ast.CEIL: math.ceil,
    ast.TO_INT: int,
    ast.TO_REAL: float,
    ast.TO_BOOL: bool,
}

_BINARY = {
    ast.ADD: operator.add,
    ast.SUB: operator.sub,
    ast.MUL: operator.mul,
    ast.DIV: lambda a, b: semantics.real_div(float(a), float(b)),
    ast.IDIV: lambda a, b: semantics.c_idiv(int(a), int(b)),
    ast.MOD: lambda a, b: semantics.c_mod(int(a), int(b)),
    ast.MIN: min,
    ast.MAX: max,
    ast.LT: operator.lt,
    ast.LE: operator.le,
    ast.GT: operator.gt,
    ast.GE: operator.ge,
    ast.EQ: operator.eq,
    ast.NE: operator.ne,
    ast.XOR: lambda a, b: bool(a) != bool(b),
}


def _converter(ty: Type) -> Callable[[object], object]:
    """``coerce_value(value, ty)`` specialized to a plain callable."""
    if ty.is_bool:
        return bool
    if ty.is_int:
        return int
    if ty.is_real:
        return float
    return lambda value: coerce_value(value, ty)


def _interpreted(expr: Expr) -> CompiledExpr:
    """Fallback: defer the whole subtree to the reference evaluator."""
    return lambda env: evaluate(expr, env)


def _shared_nodes(root: Expr) -> Set[int]:
    """Ids of the nodes under ``root`` that have more than one parent edge."""
    parents: Dict[int, int] = {}
    stack = [root]
    while stack:
        node = stack.pop()
        for child in node.children:
            key = id(child)
            count = parents.get(key, 0)
            parents[key] = count + 1
            if not count:
                stack.append(child)
    return {key for key, count in parents.items() if count > 1}


class ExprCompiler:
    """Compiles the nodes of one expression DAG against one per-call memo.

    Build closures with :meth:`value` (or :meth:`memoized` for other
    closure kinds over the same nodes), then wrap the root closure once
    with :meth:`entry`.
    """

    def __init__(self, root: Expr):
        self._shared = _shared_nodes(root)
        self._closures: Dict[Tuple[int, str], Callable] = {}
        self._memo: List[object] = []

    def value(self, expr: Expr) -> CompiledExpr:
        """Closure equivalent to ``evaluate(expr, env)`` within a call."""
        # Unshared nodes skip ``memoized``: one stack frame less per DAG
        # level keeps compile recursion as shallow as the evaluator's.
        if id(expr) not in self._shared:
            return _compile_node(self, expr)
        return self.memoized(expr, "value", _compile_node)

    def memoized(self, node: Expr, kind: str, build) -> Callable:
        """``build(self, node)``, behind a memo slot when ``node`` is shared.

        ``kind`` keeps the different closures of one node apart: a
        relational atom has both a value and a branch distance.  A shared
        node is compiled once per kind; constants are never memoized.
        """
        if id(node) not in self._shared or isinstance(node, Const):
            return build(self, node)
        key = (id(node), kind)
        fn = self._closures.get(key)
        if fn is None:
            fn = self._closures[key] = self._slot(build(self, node))
        return fn

    def _slot(self, compute: Callable) -> Callable:
        memo = self._memo
        slot = len(memo)
        memo.append(_UNSET)

        def memoized(env):
            value = memo[slot]
            if value is _UNSET:
                # Assigned only once ``compute`` returns: errors are
                # never memoized.
                value = memo[slot] = compute(env)
            return value

        return memoized

    def entry(self, fn: Callable) -> Callable:
        """Wrap the root closure so that every call starts on an empty memo."""
        memo = self._memo
        if not memo:
            return fn
        blank = [_UNSET] * len(memo)

        def entry(env):
            memo[:] = blank
            return fn(env)

        return entry


def compile_expr(expr: Expr) -> CompiledExpr:
    """Compile ``expr`` into a closure equivalent to ``evaluate(expr, env)``."""
    compiler = ExprCompiler(expr)
    return compiler.entry(compiler.value(expr))


def _compile_node(compiler: ExprCompiler, expr: Expr) -> CompiledExpr:
    if isinstance(expr, Const):
        value = expr.value
        return lambda env: value
    if isinstance(expr, Var):
        name = expr.name
        conv = _converter(expr.ty)

        def var_fn(env):
            try:
                raw = env[name]
            except KeyError:
                raise EvalError(f"no value for variable {name!r}") from None
            return conv(raw)

        return var_fn
    if isinstance(expr, Unary):
        fn = _UNARY.get(expr.op)
        if fn is None:
            return _interpreted(expr)
        arg = compiler.value(expr.arg)
        conv = _converter(expr.ty)
        return lambda env: conv(fn(arg(env)))
    if isinstance(expr, Binary):
        op = expr.op
        fn = _BINARY.get(op)
        if fn is None and op not in (ast.AND, ast.OR, ast.IMPLIES):
            return _interpreted(expr)
        left = compiler.value(expr.left)
        right = compiler.value(expr.right)
        if op == ast.AND:
            return lambda env: bool(right(env)) if left(env) else False
        if op == ast.OR:
            return lambda env: True if left(env) else bool(right(env))
        if op == ast.IMPLIES:
            return lambda env: bool(right(env)) if left(env) else True
        conv = _converter(expr.ty)
        return lambda env: conv(fn(left(env), right(env)))
    if isinstance(expr, Ite):
        cond = compiler.value(expr.cond)
        then = compiler.value(expr.then)
        orelse = compiler.value(expr.orelse)
        conv = _converter(expr.ty)
        return lambda env: conv(then(env)) if cond(env) else conv(orelse(env))
    if isinstance(expr, Select):
        array_fn = compiler.value(expr.array)
        index_fn = compiler.value(expr.index)

        def select_fn(env):
            array = array_fn(env)
            index = int(index_fn(env))
            if not 0 <= index < len(array):
                raise EvalError(
                    f"array index {index} out of range 0..{len(array) - 1}"
                )
            return array[index]

        return select_fn
    if isinstance(expr, Store):
        array_fn = compiler.value(expr.array)
        index_fn = compiler.value(expr.index)
        value_fn = compiler.value(expr.value)

        def store_fn(env):
            array = list(array_fn(env))
            index = int(index_fn(env))
            if not 0 <= index < len(array):
                raise EvalError(
                    f"array index {index} out of range 0..{len(array) - 1}"
                )
            array[index] = value_fn(env)
            return tuple(array)

        return store_fn
    return _interpreted(expr)
