"""Symbolic encodings of model steps.

Two encoders share the symbolic execution machinery:

* :class:`OneStepEncoding` — STCG's state-aware encoding: inputs are
  symbolic variables, the state snapshot enters as *constants*.  Branch
  conditions therefore collapse wherever they depend on state (a transition
  whose source state is inactive folds to ``false`` immediately), which is
  the paper's central argument for solving one iteration at a time.  The
  encoding is *demand-driven*: construction only binds the symbolic
  context, and a query executes, once, just the static cone of the plan
  item that records the requested decision or condition point
  (:attr:`~repro.model.graph.CompiledModel.cones`).  Most (state, target)
  pairs STCG visits fold to ``false`` after a few items, so the bulk of
  the model is never executed for them; most of those never reach the
  encoder at all, being refuted first by :mod:`repro.solver.guards`.
* :class:`UnrolledEncoding` — the SLDV-like bounded encoding: ``k`` steps
  are chained symbolically from the initial state, with per-step input
  variables and state expressions threaded between steps.  Constraint size
  grows with depth and with state complexity (arrays, chart locations),
  reproducing why whole-model constraint solving struggles on state-heavy
  models.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import SolverError
from repro.coverage.registry import Branch
from repro.expr import ops as x
from repro.expr.ast import Expr, FALSE, TRUE, Var
from repro.model.context import symbolic_context
from repro.model.executor import execute_step, run_item
from repro.model.graph import CompiledModel
from repro.model.state import ModelState


class OneStepEncoding:
    """Symbolic execution of one iteration from a concrete state, run on
    demand.

    Invariants: each plan item runs at most once per encoding; a recorded
    outcome condition or condition atom is never replaced (entries passed
    in — a restored warm-store encoding — are authoritative); a query runs
    the missing items of a dependency-closed cone in plan order, and a data
    store's writers and ``read_current`` readers share one cone, so every
    item sees exactly the inputs, activation and store writes it sees in a
    full step.  Answers are therefore structurally equal to those of a
    full symbolic step (:meth:`complete`) whatever the query order.
    """

    def __init__(
        self,
        compiled: CompiledModel,
        state: ModelState,
        outcome_conditions: Optional[Dict[int, List[Expr]]] = None,
        condition_atoms: Optional[Dict[int, Tuple[List[Expr], Expr]]] = None,
    ):
        self.compiled = compiled
        self.state = state
        self.variables: List[Var] = compiled.input_variables()
        #: decision id -> outcome conditions recorded so far.
        self._outcome_conditions: Dict[int, List[Expr]] = (
            {} if outcome_conditions is None else outcome_conditions
        )
        #: point id -> (atoms, evaluation context) recorded so far.
        self._condition_atoms: Dict[int, Tuple[List[Expr], Expr]] = (
            {} if condition_atoms is None else condition_atoms
        )
        # ``ModelState.values`` hands out a fresh dict that execution only
        # reads (writes land in ``ctx.next_state``); the snapshot itself
        # is never aliased or mutated.
        self._ctx = symbolic_context(
            {v.name: v for v in self.variables}, state.values
        )
        n_items = len(compiled.plan)
        self._outputs: List[Optional[List[object]]] = [None] * n_items
        self._actives: List[object] = [True] * n_items
        #: Bitmask of the plan items already run (bit i = item i).
        self._ran = 0

    @property
    def recorded_entries(self) -> int:
        """Outcome-condition plus condition-atom entries recorded so far."""
        return len(self._outcome_conditions) + len(self._condition_atoms)

    def complete(self) -> "OneStepEncoding":
        """Run every item not yet run: the encoding of a full step."""
        self._run_cone((1 << len(self.compiled.plan)) - 1)
        return self

    def _run_cone(self, cone: int) -> None:
        """Run the not-yet-run items of ``cone`` in plan order, keeping the
        conditions and atoms they record (first record wins)."""
        missing = cone & ~self._ran
        if not missing:
            return
        compiled = self.compiled
        plan = compiled.plan
        ctx = self._ctx
        owned = compiled.owned_records
        while missing:
            lowest = missing & -missing
            index = lowest.bit_length() - 1
            missing ^= lowest
            self._ran |= lowest
            run_item(compiled, plan[index], ctx, self._outputs, self._actives)
            decisions, points = owned[index]
            for decision_id in decisions:
                conditions = ctx.outcome_conditions.get(decision_id)
                if conditions is not None:
                    self._outcome_conditions.setdefault(decision_id, conditions)
            for point_id in points:
                recorded = ctx.condition_atoms.get(point_id)
                if recorded is not None:
                    self._condition_atoms.setdefault(point_id, recorded)

    def _run_owner(self, owners, record_id: int) -> None:
        """Run the cone of the item recording decision/point ``record_id``
        (per ``owners``); ids no item records have nothing to run."""
        if 0 <= record_id < len(owners):
            owner = owners[record_id]
            if not self._ran >> owner & 1:
                self._run_cone(self.compiled.cones[owner])

    def branch_condition(self, branch: Branch) -> Expr:
        """The branch's local condition C under this state."""
        decision_id = branch.decision.decision_id
        conditions = self._outcome_conditions.get(decision_id)
        if conditions is None:
            self._run_owner(self.compiled.decision_owner, decision_id)
            conditions = self._outcome_conditions.get(decision_id)
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

    def next_state_expressions(self) -> Dict[str, object]:
        """Symbolic next state (constants where untouched)."""
        self.complete()
        next_state = dict(self._ctx.state_env)
        next_state.update(self._ctx.next_state)
        return next_state

    def obligation_constraint(self, obligation) -> Expr:
        """Constraint whose solution satisfies a condition obligation.

        For a *value* obligation this is: the point is evaluated and the
        atom takes the requested polarity.  For an *mcdc* obligation it is
        additionally required that the atom *determines* the decision
        outcome — the boolean derivative of the point's structure, with the
        other atoms substituted symbolically, must be true.
        """
        point_id = obligation.point_id
        recorded = self._condition_atoms.get(point_id)
        if recorded is None:
            self._run_owner(self.compiled.point_owner, point_id)
            recorded = self._condition_atoms.get(point_id)
        if recorded is None:
            # The point is unreachable from this state (e.g. a transition
            # guard whose source state is inactive).
            return x.FALSE
        atoms, context = recorded
        point = self.compiled.registry.condition_point(point_id)
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
        from repro.expr.variables import substitute

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


class UnrolledEncoding:
    """Bounded multi-step symbolic unrolling from the initial state."""

    def __init__(
        self,
        compiled: CompiledModel,
        depth: int,
        initial_state: Optional[ModelState] = None,
    ):
        if depth < 1:
            raise SolverError("unroll depth must be >= 1")
        self.compiled = compiled
        self.depth = depth
        self.variables: List[Var] = []
        self._step_conditions: List[Dict[int, List[Expr]]] = []
        state_env: Dict[str, object] = (
            initial_state.values
            if initial_state is not None
            else compiled.initial_state()
        )
        for step in range(depth):
            step_vars = compiled.input_variables(suffix=f"@{step}")
            self.variables.extend(step_vars)
            inputs = {
                spec.name: var
                for spec, var in zip(compiled.inports, step_vars)
            }
            ctx = symbolic_context(inputs, state_env, time_index=step)
            execute_step(compiled, ctx)
            self._step_conditions.append(ctx.outcome_conditions)
            state_env = dict(state_env)
            state_env.update(ctx.next_state)
        self._final_state = state_env

    def branch_condition(self, branch: Branch, step: int) -> Expr:
        conditions = self._step_conditions[step].get(branch.decision.decision_id)
        if conditions is None:
            raise SolverError(
                f"decision {branch.decision.path!r} recorded no conditions"
            )
        return conditions[branch.outcome]

    def path_constraint(self, branch: Branch, step: int) -> Expr:
        constraint = self.branch_condition(branch, step)
        for ancestor in branch.ancestors():
            constraint = x.land(constraint, self.branch_condition(ancestor, step))
        return constraint

    def reach_constraint(self, branch: Branch) -> Expr:
        """Branch reachable at *any* unrolled step (disjunction over steps)."""
        return x.disjoin(
            self.path_constraint(branch, step) for step in range(self.depth)
        )

    def decode_sequence(self, model: Dict[str, object]) -> List[Dict[str, object]]:
        """Split a solver model over step-suffixed variables into a test
        input sequence."""
        sequence: List[Dict[str, object]] = []
        for step in range(self.depth):
            step_inputs: Dict[str, object] = {}
            for spec in self.compiled.inports:
                step_inputs[spec.name] = model[f"{spec.name}@{step}"]
            sequence.append(step_inputs)
        return sequence
