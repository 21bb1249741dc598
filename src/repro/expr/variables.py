"""Variable collection and substitution over expression DAGs."""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional

from repro.expr.ast import (
    AND,
    OR,
    Binary,
    Const,
    Expr,
    Ite,
    Select,
    Store,
    Unary,
    Var,
)
from repro.expr import ops

#: Binary operators whose left operand can decide the result, with the
#: deciding constant: ``false and _`` is ``false``, ``true or _`` is ``true``.
_SHORT_CIRCUIT = {AND: False, OR: True}


def free_variables(expr: Expr) -> Dict[str, Var]:
    """Return the free variables of ``expr`` as ``name -> Var`` (sorted keys)."""
    found: Dict[str, Var] = {}
    for node in expr.walk():
        if isinstance(node, Var) and node.name not in found:
            found[node.name] = node
    return dict(sorted(found.items()))


def free_variables_of(exprs: Iterable[Expr]) -> Dict[str, Var]:
    """Union of :func:`free_variables` over several expressions."""
    found: Dict[str, Var] = {}
    for expr in exprs:
        for name, var in free_variables(expr).items():
            found.setdefault(name, var)
    return dict(sorted(found.items()))


def substitute(
    expr: Expr,
    bindings: Mapping[str, Expr],
    memo: Optional[Dict[int, Expr]] = None,
) -> Expr:
    """Replace variables by expressions, rebuilding through smart constructors.

    Constant bindings therefore fold through the whole tree, which is how
    the one-step encoder specializes the model's step template to a
    concrete state snapshot.

    The fold is lazy: an ``Ite`` visits its condition first and, once the
    condition folds to a constant, only the taken arm; an ``and``/``or``
    visits its left operand first and stops when it folds to ``false`` /
    ``true``.  The smart constructors return exactly the skipped-over
    results (``ite(const, a, b)``, ``land(false, _)``, ``lor(true, _)``),
    so wherever an eager fold would not raise the result is identical;
    a fold that would only raise inside a skipped operand does not.

    ``memo`` maps ``id(node)`` to the node's substituted form.  A caller
    that substitutes several expressions under the *same* bindings may
    pass one dict to share that work; it must keep the source nodes
    alive while the memo is in use (ids are reused after collection).
    """
    if memo is None:
        memo = {}

    def visit(node: Expr) -> Expr:
        result = memo.get(id(node))
        if result is None:
            result = memo[id(node)] = _rebuild(node, visit, bindings)
        return result

    return visit(expr)


def _rebuild(node: Expr, visit, bindings: Mapping[str, Expr]) -> Expr:
    if isinstance(node, Var):
        return bindings.get(node.name, node)
    if isinstance(node, Const):
        return node
    if isinstance(node, Unary):
        arg = visit(node.arg)
        if arg is node.arg:
            return node
        return _unary(node.op, arg)
    if isinstance(node, Binary):
        left = visit(node.left)
        if (
            node.op in _SHORT_CIRCUIT
            and left is not node.left
            and isinstance(left, Const)
            and bool(left.value) is _SHORT_CIRCUIT[node.op]
        ):
            # land(false, _) / lor(true, _): the right operand is not read.
            return _binary(node.op, left, node.right)
        right = visit(node.right)
        if left is node.left and right is node.right:
            return node
        return _binary(node.op, left, right)
    if isinstance(node, Ite):
        cond = visit(node.cond)
        if cond is not node.cond and isinstance(cond, Const):
            # ite(const, a, b) is the taken arm; the other is not read.
            if cond.value:
                return ops.ite(cond, visit(node.then), node.orelse)
            return ops.ite(cond, node.then, visit(node.orelse))
        then = visit(node.then)
        orelse = visit(node.orelse)
        if cond is node.cond and then is node.then and orelse is node.orelse:
            return node
        return ops.ite(cond, then, orelse)
    if isinstance(node, Select):
        array = visit(node.array)
        index = visit(node.index)
        if array is node.array and index is node.index:
            return node
        return ops.select(array, index)
    if isinstance(node, Store):
        array = visit(node.array)
        index = visit(node.index)
        value = visit(node.value)
        if array is node.array and index is node.index and value is node.value:
            return node
        return ops.store(array, index, value)
    return node


_UNARY_BUILDERS = {
    "neg": ops.neg,
    "not": ops.lnot,
    "abs": ops.absolute,
    "floor": ops.floor,
    "ceil": ops.ceil,
    "to_int": ops.to_int,
    "to_real": ops.to_real,
    "to_bool": ops.to_bool,
}

_BINARY_BUILDERS = {
    "add": ops.add,
    "sub": ops.sub,
    "mul": ops.mul,
    "div": ops.div,
    "idiv": ops.idiv,
    "mod": ops.mod,
    "min": ops.minimum,
    "max": ops.maximum,
    "lt": ops.lt,
    "le": ops.le,
    "gt": ops.gt,
    "ge": ops.ge,
    "eq": ops.eq,
    "ne": ops.ne,
    "and": ops.land,
    "or": ops.lor,
    "xor": ops.lxor,
    "implies": ops.implies,
}


def _unary(op: str, arg: Expr) -> Expr:
    return _UNARY_BUILDERS[op](arg)


def _binary(op: str, left: Expr, right: Expr) -> Expr:
    return _BINARY_BUILDERS[op](left, right)


def node_count(expr: Expr) -> int:
    """Number of nodes in the expression tree (DAG nodes counted once)."""
    seen = set()
    for node in expr.walk():
        seen.add(id(node))
    return len(seen)
