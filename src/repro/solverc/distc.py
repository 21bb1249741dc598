"""Compiled branch-distance objectives.

:func:`compile_distance_scalar` is the compiled form of
:class:`~repro.expr.distance.DistanceEvaluator`, observably exact against
it: one closure per NNF node, with atom operands compiled by
:class:`repro.kernel.exprc.ExprCompiler` (pinned observably equivalent to
``evaluate``) against the same per-call memo as the distance nodes, so
every node shared within or across atoms is computed once per call, as
under the interpreter's memo.  Same Python-float arithmetic, same
``try/except Exception`` failure behaviour, so the AVM search sees
bit-identical objective values.

The distance formulas are transcribed from ``repro.expr.distance`` and
must track it: AND sums, OR takes the first minimum, relational atoms
use the K-offset metric with ``normalize_raw`` flooring, non-finite
operands and evaluation errors map to ``FAILURE_DISTANCE``.
"""

from __future__ import annotations

from typing import Callable, Mapping

from repro.expr import ast
from repro.expr.ast import Binary, Const, Expr
from repro.expr.distance import FAILURE_DISTANCE, K, _finite, normalize_raw
from repro.expr.types import BOOL

__all__ = ["compile_distance_scalar"]


def _expr_compiler(root: Expr):
    # Deferred: repro.kernel's package import reaches the simulator,
    # which imports repro.solver — importing exprc at module scope would
    # close that loop before repro.solver finishes initializing.
    from repro.kernel.exprc import ExprCompiler

    return ExprCompiler(root)


def compile_distance_scalar(nnf: Expr) -> Callable[[Mapping], float]:
    """Compile an NNF constraint into an ``env -> distance`` closure.

    Distance nodes and atom operands share one per-call memo, so a
    sub-DAG shared within or across atoms is computed once per call.
    """
    compiler = _expr_compiler(nnf)
    return compiler.entry(_distance(compiler, nnf))


def _distance(compiler, nnf: Expr) -> Callable[[Mapping], float]:
    return compiler.memoized(nnf, "distance", _compile_distance_node)


def _compile_distance_node(compiler, nnf: Expr) -> Callable[[Mapping], float]:
    if isinstance(nnf, Const):
        value = 0.0 if nnf.value else FAILURE_DISTANCE
        return lambda env: value
    if isinstance(nnf, Binary):
        if nnf.op == ast.AND:
            left = _distance(compiler, nnf.left)
            right = _distance(compiler, nnf.right)
            return lambda env: left(env) + right(env)
        if nnf.op == ast.OR:
            left = _distance(compiler, nnf.left)
            right = _distance(compiler, nnf.right)
            return lambda env: min(left(env), right(env))
        if nnf.op in ast.REL_OPS:
            return _compile_atom_scalar(compiler, nnf)
    return _compile_opaque_scalar(compiler, nnf)


def _compile_atom_scalar(compiler, atom: Binary) -> Callable[[Mapping], float]:
    left = compiler.value(atom.left)
    right = compiler.value(atom.right)
    # Compiled nodes coerce every result through the node's static type,
    # so "is a bool involved" is decidable here rather than per call.
    coerce_bool = atom.left.ty is BOOL or atom.right.ty is BOOL
    metric = _SCALAR_METRICS[atom.op]

    def distance(env: Mapping) -> float:
        try:
            a = left(env)
            b = right(env)
        except Exception:
            return FAILURE_DISTANCE
        if coerce_bool:
            a = float(bool(a))
            b = float(bool(b))
        if not (_finite(a) and _finite(b)):
            return FAILURE_DISTANCE
        return metric(a, b)

    return distance


def _compile_opaque_scalar(compiler, expr: Expr) -> Callable[[Mapping], float]:
    compiled = compiler.value(expr)

    def distance(env: Mapping) -> float:
        try:
            value = compiled(env)
        except Exception:
            return FAILURE_DISTANCE
        return 0.0 if value else K

    return distance


_SCALAR_METRICS = {
    ast.LT: lambda a, b: 0.0 if a < b else normalize_raw(a - b + K),
    ast.LE: lambda a, b: 0.0 if a <= b else normalize_raw(a - b),
    ast.GT: lambda a, b: 0.0 if a > b else normalize_raw(b - a + K),
    ast.GE: lambda a, b: 0.0 if a >= b else normalize_raw(b - a),
    ast.EQ: lambda a, b: 0.0 if a == b else normalize_raw(abs(a - b)),
    ast.NE: lambda a, b: 0.0 if a != b else K,
}
