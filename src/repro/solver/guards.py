"""Compiled state guards: refute (state, target) pairs before encoding.

Most (state, target) pairs STCG visits fold to ``false`` under the state's
constants — a transition whose source state is inactive, an action
subsystem whose enabling outcome cannot hold.  A *guard* decides that
without symbolic execution.  It is read off the model's step template
(:meth:`~repro.model.graph.CompiledModel.step_template`), in which state
elements are variables:

* for a branch, the input-free top-level conjuncts of its outcome
  condition and of its ancestors' outcome conditions;
* for a condition/MCDC obligation, the input-free top-level conjuncts of
  the point's evaluation context and of the atom's polarity (the MCDC
  derivative is left out).

An input-free conjunct is a pure state predicate.  Specializing the
template to a state gives that state's one-step encoding, so a conjunct
that evaluates ``false`` on the state folds to ``false`` there, and so
does the target's whole constraint.  A false guard is therefore exactly
the encoder's constant-``false`` verdict, reached without encoding.  A
guard that raises is *undecided*: the pair goes to the encoder.

The template is built on first use (a guard query or an encoder query),
and each target's guard on its first query, so runs that never solve
never pay for either.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import EvalError
from repro.expr import ops as x
from repro.expr.ast import AND, Binary, Expr, Var
from repro.kernel.exprc import CompiledExpr, compile_expr
from repro.model.graph import CompiledModel
from repro.model.state import ModelState

#: Marks a target whose guard was not derived yet.
_UNBUILT = object()


def conjuncts(expr: Expr) -> List[Expr]:
    """The top-level conjuncts of ``expr``, left to right."""
    found: List[Expr] = []
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, Binary) and node.op == AND:
            stack.append(node.right)
            stack.append(node.left)
        else:
            found.append(node)
    return found


class StateGuards:
    """Per-target compiled guards over one model's step template.

    Keys are the generator's target keys: ``("branch", branch_id)`` and
    ``("obligation", obligation)``.
    """

    def __init__(self, compiled: CompiledModel):
        self.compiled = compiled
        #: target key -> compiled guard, or None for "no guard".
        self._guards: Dict[object, Optional[CompiledExpr]] = {}
        #: id(template node) -> whether it is input-free, shared by every
        #: target.  Only template nodes are entered; the template keeps
        #: them (and so their ids) alive.
        self._input_free: Dict[int, bool] = {}

    def refutes(self, target_key, state: ModelState) -> bool:
        """True iff ``target_key``'s guard is false on ``state``: its
        one-step constraint there is the constant ``false``."""
        guard = self._guards.get(target_key, _UNBUILT)
        if guard is _UNBUILT:
            guard = self._guards[target_key] = self._derive(target_key)
        if guard is None:
            return False
        try:
            return not guard(state.view())
        except EvalError:
            return False

    # -- derivation ------------------------------------------------------

    def terms(self, target_key) -> List[Expr]:
        """The guard's conjuncts for ``target_key`` (empty: no guard)."""
        template = self.compiled.step_template()
        kind, payload = target_key
        terms: List[Expr] = []
        if kind == "branch":
            branch = self.compiled.registry.branch(payload)
            for link in [branch, *branch.ancestors()]:
                conditions = template.outcome_conditions[
                    link.decision.decision_id
                ]
                terms.extend(self._free_conjuncts(conditions[link.outcome]))
            return terms
        recorded = template.condition_atoms.get(payload.point_id)
        if recorded is None:
            # Recorded by no block: the encoder folds it itself.
            return []
        atoms, context = recorded
        terms.extend(self._free_conjuncts(context))
        atom = atoms[payload.atom]
        if payload.polarity:
            terms.extend(self._free_conjuncts(atom))
        elif self._free(atom):
            # Negation drops no variable: it is input-free iff the atom is.
            terms.append(x.lnot(atom))
        return terms

    def _derive(self, target_key) -> Optional[CompiledExpr]:
        terms = self.terms(target_key)
        return compile_expr(x.conjoin(terms)) if terms else None

    def _free_conjuncts(self, expr: Expr) -> List[Expr]:
        return [term for term in conjuncts(expr) if self._free(term)]

    def _free(self, expr: Expr) -> bool:
        """Whether the template node ``expr`` reads no inport variable
        (memoized per node across the whole template)."""
        memo = self._input_free
        known = memo.get(id(expr))
        if known is not None:
            return known
        inputs = self.compiled.step_template().input_names
        stack: List[Tuple[Expr, bool]] = [(expr, False)]
        while stack:
            node, expanded = stack.pop()
            key = id(node)
            if key in memo:
                continue
            if isinstance(node, Var):
                memo[key] = node.name not in inputs
            elif expanded:
                memo[key] = all(memo[id(child)] for child in node.children)
            else:
                stack.append((node, True))
                stack.extend(
                    (child, False) for child in node.children
                    if id(child) not in memo
                )
        return memo[id(expr)]
