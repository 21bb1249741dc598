"""Step execution context: the bridge between blocks and the engine.

The context carries, for one model step:

* the operation table (:data:`~repro.model.valueops.CONCRETE` or
  :data:`~repro.model.valueops.SYMBOLIC`),
* the input values (concrete values, or symbolic variables),
* state access — reads come from the current state environment, writes go
  to the next-state environment, gated by the *activation* of the block's
  conditional context,
* coverage event sinks (concrete mode) and decision-condition recording
  (symbolic mode).

Activation: a block inside an (possibly nested) action subsystem only
"executes" when its enabling decision outcomes hold.  Concretely the engine
computes a bool; symbolically an expression.  ``compute`` still runs either
way (dataflow blocks are pure), but state writes and coverage events are
gated here, which yields exactly Simulink's conditional-execution semantics.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import SimulationError
from repro.coverage.collector import CoverageCollector
from repro.coverage.registry import ConditionPoint, Decision
from repro.expr.ast import Expr
from repro.model.block import Block
from repro.model.valueops import CONCRETE, SYMBOLIC, ValueOps


class StepContext:
    """Mutable context threaded through one step of model execution."""

    def __init__(
        self,
        vo: ValueOps,
        inputs: Dict[str, object],
        state_env: Dict[str, object],
        next_state: Dict[str, object],
        collector: Optional[CoverageCollector] = None,
        time_index: int = 0,
    ):
        self.vo = vo
        self.inputs = inputs
        self.state_env = state_env
        self.next_state = next_state
        self.collector = collector
        self.time_index = time_index
        #: Activation of the block currently executing (bool or Expr).
        self.active: object = True
        #: Decision outcomes taken this step (concrete): decision_id -> outcome.
        self.taken_outcomes: Dict[int, int] = {}
        #: Outcome condition expressions (symbolic): decision_id -> [Expr].
        self.outcome_conditions: Dict[int, List[Expr]] = {}
        #: Condition-atom expressions (symbolic): point_id -> (atoms, context)
        #: where ``context`` is the condition under which the point is
        #: evaluated this step.
        self.condition_atoms: Dict[int, Tuple[List[Expr], Expr]] = {}
        #: Branches newly covered during this step (concrete mode).
        self.new_branches: List[int] = []
        #: Condition obligations newly satisfied this step (concrete mode).
        self.new_obligations: List[object] = []

    # -- input / state access ---------------------------------------------------

    def input_value(self, name: str):
        try:
            return self.inputs[name]
        except KeyError:
            raise SimulationError(f"missing input {name!r}") from None

    def read_state(self, block: Block, key: str):
        return self.read_state_path(f"{block.path}.{key}")

    def read_state_path(self, path: str):
        try:
            return self.state_env[path]
        except KeyError:
            raise SimulationError(f"unknown state element {path!r}") from None

    def write_state(self, block: Block, key: str, value) -> None:
        self.write_state_path(f"{block.path}.{key}", value)

    def write_state_path(self, path: str, value) -> None:
        """Write a next-state value, gated by the current activation."""
        if path not in self.state_env:
            raise SimulationError(f"unknown state element {path!r}")
        if self.vo.symbolic:
            if self.active is True:
                self.next_state[path] = value
            else:
                current = self.next_state.get(path, self.state_env[path])
                self.next_state[path] = self.vo.ite(self.active, value, current)
        else:
            if self.active:
                self.next_state[path] = value

    # Data stores share the state environment under a reserved prefix.

    @staticmethod
    def store_path(name: str) -> str:
        return f"$store.{name}"

    def read_store(self, name: str):
        return self.read_state_path(self.store_path(name))

    def write_store(self, name: str, value) -> None:
        self.write_state_path(self.store_path(name), value)

    def current_store(self, name: str):
        """Latest value written to a store this step (or the step-start value).

        Simulink data-store reads observe writes that executed earlier in the
        same step, so reads go through this instead of ``read_store``.
        """
        path = self.store_path(name)
        if path in self.next_state:
            return self.next_state[path]
        return self.read_state_path(path)

    # -- coverage events (concrete) ----------------------------------------------

    def on_decision(self, decision: Decision, outcome: int) -> None:
        if self.vo.symbolic:
            raise SimulationError("on_decision is a concrete-mode event")
        if not self.active:
            return
        self.taken_outcomes[decision.decision_id] = outcome
        if self.collector is not None:
            branch = decision.branches[outcome]
            if self.collector.on_branch(branch):
                self.new_branches.append(branch.branch_id)

    def on_condition_vector(self, point: ConditionPoint, vector) -> None:
        if not self.active:
            return
        if self.collector is not None:
            newly = self.collector.on_condition_vector(
                point, tuple(bool(v) for v in vector)
            )
            self.new_obligations.extend(newly)

    # -- symbolic recording ---------------------------------------------------------

    def record_outcome_conditions(self, decision: Decision, conditions: List[Expr]):
        if len(conditions) != decision.n_outcomes:
            raise SimulationError(
                f"decision {decision.path!r} expects {decision.n_outcomes} "
                f"outcome conditions, got {len(conditions)}"
            )
        self.outcome_conditions[decision.decision_id] = list(conditions)

    def record_condition_atoms(
        self, point: ConditionPoint, atoms: List[Expr], context: Expr
    ) -> None:
        """Record the symbolic atom expressions of a condition point plus the
        condition under which the point is evaluated (enable chain / guard
        evaluation order)."""
        self.condition_atoms[point.point_id] = (list(atoms), context)


def concrete_context(
    inputs: Dict[str, object],
    state_env: Dict[str, object],
    collector: Optional[CoverageCollector],
    time_index: int,
) -> StepContext:
    return StepContext(
        CONCRETE, inputs, state_env, {}, collector=collector, time_index=time_index
    )


def symbolic_context(
    inputs: Dict[str, object],
    state_env: Dict[str, object],
    time_index: int = 0,
) -> StepContext:
    return StepContext(SYMBOLIC, inputs, state_env, {}, time_index=time_index)
