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

:func:`generate_distance` is the next tier of the same objective: one
straight-line Python function, rendered by the step generator's
:class:`~repro.kernel.stepgen.Emitter` in its converting mode and built
with one ``compile()``.  It computes one local per shared node, eagerly,
and inlines every other node, so ``and``/``or``/``Ite`` arms stay lazy;
it evaluates every node the closure would, and possibly more.  Every
node is pure, so when nothing raises each distance is the closure's
float.  Its whole body sits in one ``try``: on any ``Exception`` it
returns the closure's result for that ``env`` (raising what the closure
raises, such as the ``OverflowError`` that ``_finite`` lets escape).

The distance formulas are transcribed from ``repro.expr.distance`` and
must track it: AND sums, OR takes the first minimum, relational atoms
use the K-offset metric with ``normalize_raw`` flooring, non-finite
operands and evaluation errors map to ``FAILURE_DISTANCE``.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Mapping

from repro.expr import ast
from repro.expr.ast import Binary, Const, Expr
from repro.expr.distance import FAILURE_DISTANCE, K, _finite, normalize_raw
from repro.expr.types import BOOL, INT, REAL

__all__ = ["compile_distance_scalar", "generate_distance"]


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


#: The generated form of ``_SCALAR_METRICS``, over operand sources
#: ``{a}`` and ``{b}`` that are names or literals.
_METRIC_SOURCES = {
    ast.LT: "0.0 if {a} < {b} else _norm({a} - {b} + {K})",
    ast.LE: "0.0 if {a} <= {b} else _norm({a} - {b})",
    ast.GT: "0.0 if {a} > {b} else _norm({b} - {a} + {K})",
    ast.GE: "0.0 if {a} >= {b} else _norm({b} - {a})",
    ast.EQ: "0.0 if {a} == {b} else _norm(abs({a} - {b}))",
    ast.NE: "0.0 if {a} != {b} else {K}",
}


def generate_distance(
    nnf: Expr, closure: Callable[[Mapping], float]
) -> Callable[[Mapping], float]:
    """The generated ``env -> distance`` function of ``nnf`` (module
    docstring), falling back to ``closure`` — the objective
    :func:`compile_distance_scalar` built for ``nnf`` — on any exception.

    Raises ``ExprError`` for a node the emitter cannot render, and
    ``SyntaxError`` or ``RecursionError`` when ``compile()`` rejects the
    source.
    """
    source, namespace = _render_distance(nnf)
    namespace["_closure"] = closure
    exec(compile(source, "<objective>", "exec"), namespace)
    return namespace["objective"]


def _render_distance(nnf: Expr):
    """The generated objective's source and the globals it needs."""
    # Deferred for the reason given in ``_expr_compiler``.
    from repro.kernel.stepgen import RUNTIME, Emitter

    emitter = Emitter([nnf])
    lines = emitter.lines
    #: distance node id -> the local (or literal) holding its distance
    done: Dict[int, str] = {}

    def operand(expr: Expr, coerce_bool: bool) -> str:
        """A name or literal holding the atom operand ``expr``."""
        text = emitter.source(expr)
        if coerce_bool:
            text = f"float(bool({text}))"
        elif isinstance(expr, Const) or text.isidentifier():
            return text
        name = f"a{len(lines)}"
        lines.append(f"{name} = {text}")
        return name

    def finite(name: str, expr: Expr) -> str:
        # ``math.isfinite`` is ``_finite`` on an int or a float (both
        # raise OverflowError on an int too large for a float).
        kind = emitter.kind(expr)
        if kind in (INT, REAL, BOOL):
            return f"_isfinite({name})"
        return f"_finite({name})"

    def atom(node: Expr) -> str:
        if isinstance(node, Binary) and node.op in ast.REL_OPS:
            coerce_bool = node.left.ty is BOOL or node.right.ty is BOOL
            a = operand(node.left, coerce_bool)
            b = operand(node.right, coerce_bool)
            metric = _METRIC_SOURCES[node.op].format(a=a, b=b, K=repr(K))
            if coerce_bool:
                return metric
            check = f"{finite(a, node.left)} and {finite(b, node.right)}"
            return f"({metric}) if {check} else {FAILURE_DISTANCE!r}"
        return f"0.0 if {emitter.source(node)} else {K!r}"

    stack = [(nnf, False)]
    while stack:
        node, expanded = stack.pop()
        if id(node) in done:
            continue
        if isinstance(node, Const):
            done[id(node)] = repr(0.0 if node.value else FAILURE_DISTANCE)
            continue
        combines = isinstance(node, Binary) and node.op in (ast.AND, ast.OR)
        if combines and not expanded:
            stack.append((node, True))
            stack.append((node.right, False))
            stack.append((node.left, False))
            continue
        if not combines:
            text = atom(node)
        elif node.op == ast.AND:
            text = f"{done[id(node.left)]} + {done[id(node.right)]}"
        else:
            text = emitter.pick(done[id(node.left)], done[id(node.right)], "<")
        name = f"d{len(lines)}"
        lines.append(f"{name} = {text}")
        done[id(node)] = name
    body: List[str] = ["def objective(env):", "    try:"]
    body += [f"        {line}" for line in lines]
    body.append(f"        return {done[id(nnf)]}")
    body += ["    except Exception:", "        return _closure(env)"]
    namespace = {
        **RUNTIME,
        **emitter.constants,
        "_norm": normalize_raw,
        "_finite": _finite,
        "_isfinite": math.isfinite,
    }
    return "\n".join(body) + "\n", namespace
