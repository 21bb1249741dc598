"""STCG's state-aware one-step encoding of a model step.

:class:`OneStepEncoding`: inputs are symbolic variables, the state snapshot
enters as *constants*.  Branch conditions therefore collapse wherever they
depend on state (a transition whose source state is inactive folds to
``false`` immediately), which is the paper's central argument for solving
one iteration at a time.  The encoding is specialized on demand from the
model's step template
(:meth:`~repro.model.graph.CompiledModel.step_template`, one symbolic step
in which the state is symbolic too): a query substitutes the state's
constants into just the requested template entry, and the lazy fold visits
only the arms the state selects.  Most (state, target) pairs STCG visits
fold to ``false``; most of those never reach the encoder at all, being
refuted first by :mod:`repro.solver.guards`.  The SLDV-like baseline's
bounded unroll composes the same template
(:class:`repro.baselines.sldv._IncrementalUnroll`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import SolverError
from repro.coverage.registry import Branch
from repro.expr import ops as x
from repro.expr.ast import Expr, FALSE, TRUE, Var
from repro.expr.variables import substitute
from repro.model.graph import CompiledModel
from repro.model.state import ModelState


class OneStepEncoding:
    """The one-step encoding of a concrete state, specialized on demand
    from the model's step template.

    Invariants: a recorded outcome condition or condition atom is never
    replaced; a missing one is the template entry with the state's
    values substituted for the state variables, folded lazily through
    the smart constructors on one memo shared by every query of this
    encoding.  Answers are therefore structurally equal to those of a
    full symbolic step from the state, whatever the query order.  A
    condition point whose evaluation context folds to ``false`` is
    unreachable from the state and is not recorded.
    """

    def __init__(self, compiled: CompiledModel, state: ModelState):
        self.compiled = compiled
        self.state = state
        self.variables: List[Var] = compiled.input_variables()
        #: decision id -> outcome conditions recorded so far.
        self._outcome_conditions: Dict[int, List[Expr]] = {}
        #: point id -> (atoms, evaluation context) recorded so far.
        self._condition_atoms: Dict[int, Tuple[List[Expr], Expr]] = {}
        #: State path -> its value as a constant, bound on first use.
        self._bindings: Optional[Dict[str, Expr]] = None
        #: id(template node) -> its specialization; the compiled model
        #: keeps the template (and so those ids) alive.
        self._memo: Dict[int, Expr] = {}

    def complete(self) -> "OneStepEncoding":
        """Record every entry not yet recorded: the encoding of a full step."""
        template = self.compiled.step_template()
        for decision_id in template.outcome_conditions:
            self._conditions(decision_id)
        for point_id in template.condition_atoms:
            self._atoms(point_id)
        return self

    def _specialize(self, expr: Expr) -> Expr:
        bindings = self._bindings
        if bindings is None:
            # Lifted exactly as symbolic execution lifts a state value.
            bindings = self._bindings = {
                path: x.lift(value) for path, value in self.state.values.items()
            }
        return substitute(expr, bindings, self._memo)

    def _conditions(self, decision_id: int) -> Optional[List[Expr]]:
        conditions = self._outcome_conditions.get(decision_id)
        if conditions is None:
            template = self.compiled.step_template().outcome_conditions
            if decision_id not in template:
                return None
            conditions = self._outcome_conditions[decision_id] = [
                self._specialize(condition)
                for condition in template[decision_id]
            ]
        return conditions

    def _atoms(self, point_id: int) -> Optional[Tuple[List[Expr], Expr]]:
        recorded = self._condition_atoms.get(point_id)
        if recorded is None:
            entry = self.compiled.step_template().condition_atoms.get(point_id)
            if entry is None:
                return None
            atoms, context = entry
            context = self._specialize(context)
            if context == FALSE:
                return None
            recorded = self._condition_atoms[point_id] = (
                [self._specialize(atom) for atom in atoms],
                context,
            )
        return recorded

    def branch_condition(self, branch: Branch) -> Expr:
        """The branch's local condition C under this state."""
        conditions = self._conditions(branch.decision.decision_id)
        if conditions is None:
            raise SolverError(
                f"decision {branch.decision.path!r} recorded no conditions"
            )
        return conditions[branch.outcome]

    def path_constraint(self, branch: Branch) -> Expr:
        """Branch condition conjoined with all ancestor branch conditions
        (Definition 1: solving a branch means satisfying its whole chain)."""
        constraint = self.branch_condition(branch)
        for ancestor in branch.ancestors():
            constraint = x.land(constraint, self.branch_condition(ancestor))
        return constraint

    def next_state_expressions(self) -> Dict[str, Expr]:
        """Symbolic next state (constants where untouched): the template's
        next state specialized to this state."""
        return {
            path: self._specialize(value)
            for path, value in self.compiled.step_template().next_state.items()
        }

    def obligation_constraint(self, obligation) -> Expr:
        """Constraint whose solution satisfies a condition obligation.

        For a *value* obligation this is: the point is evaluated and the
        atom takes the requested polarity.  For an *mcdc* obligation it is
        additionally required that the atom *determines* the decision
        outcome — the boolean derivative of the point's structure, with the
        other atoms substituted symbolically, must be true.
        """
        recorded = self._atoms(obligation.point_id)
        if recorded is None:
            # The point is unreachable from this state (e.g. a transition
            # guard whose source state is inactive).
            return x.FALSE
        atoms, context = recorded
        point = self.compiled.registry.condition_point(obligation.point_id)
        atom = atoms[obligation.atom]
        polarity = atom if obligation.polarity else x.lnot(atom)
        constraint = x.land(context, polarity)
        if obligation.determining:
            constraint = x.land(
                constraint, self._derivative(point, atoms, obligation.atom)
            )
        return constraint

    @staticmethod
    def _derivative(point, atoms: List[Expr], index: int) -> Expr:
        """Boolean derivative of the point structure w.r.t. one atom."""
        bind_true = {}
        bind_false = {}
        for position, atom in enumerate(atoms):
            name = f"c{position}"
            if position == index:
                bind_true[name] = TRUE
                bind_false[name] = FALSE
            else:
                bind_true[name] = atom
                bind_false[name] = atom
        with_true = substitute(point.structure, bind_true)
        with_false = substitute(point.structure, bind_false)
        return x.lxor(with_true, with_false)

