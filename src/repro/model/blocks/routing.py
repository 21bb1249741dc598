"""Routing and decision blocks: Switch, MultiportSwitch, If, SwitchCase,
subsystem output latches, selectors and array updates.

These are the blocks that *own decisions* (Definition 1 branches).  In
concrete mode they report the taken outcome into the coverage collector; in
symbolic mode they record, per outcome, the condition expression under which
that outcome is taken — the raw material of STCG's one-step solving.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.errors import ModelError
from repro.expr.types import coerce_value
from repro.coverage.registry import Branch, CoverageRegistry, DecisionKind
from repro.model.block import Block, StateElement

_CRITERIA = ("gt", "ge", "ne0", "bool")


class Switch(Block):
    """Three-port switch: passes input 0 when the control condition holds,
    else input 2 (inputs are ``(on_true, control, on_false)`` like Simulink).

    Criterion on the control port ``u2``: ``u2 > threshold`` (``gt``),
    ``u2 >= threshold`` (``ge``), ``u2 != 0`` (``ne0``) or boolean pass-through
    (``bool``).
    """

    def __init__(self, name: str, criterion: str = "bool", threshold=0):
        if criterion not in _CRITERIA:
            raise ModelError(f"unknown switch criterion {criterion!r}")
        super().__init__(name, 3, 1)
        self.criterion = criterion
        self.threshold = threshold
        self.decision = None

    def register_coverage(
        self, registry: CoverageRegistry, parent: Optional[Branch]
    ) -> None:
        self.decision = registry.register_decision(
            self.path, DecisionKind.SWITCH, ("true", "false"), parent
        )

    def _condition(self, vo, control):
        if self.criterion == "gt":
            return vo.gt(control, self.threshold)
        if self.criterion == "ge":
            return vo.ge(control, self.threshold)
        if self.criterion == "ne0":
            return vo.ne(control, 0)
        return vo.to_bool(control)

    def compute(self, ctx, inputs: List[object]) -> List[object]:
        vo = ctx.vo
        condition = self._condition(vo, inputs[1])
        if vo.symbolic:
            ctx.record_outcome_conditions(
                self.decision, [condition, vo.lnot(condition)]
            )
            return [vo.ite(condition, inputs[0], inputs[2])]
        taken = 0 if condition else 1
        ctx.on_decision(self.decision, taken)
        return [inputs[0] if condition else inputs[2]]


class MultiportSwitch(Block):
    """Routes one of N data inputs selected by an integer control value.

    ``labels[i]`` is the control value selecting data input ``i``.  When
    ``has_default`` the last data input is the default port (taken when no
    label matches), mirroring the Switch-Case block the paper's LEDLC dead
    branch lives in; without a default, a non-matching control falls back to
    the last port *without* a dedicated outcome.
    """

    def __init__(self, name: str, labels: Sequence[int], has_default: bool = True):
        if not labels:
            raise ModelError("MultiportSwitch needs at least one label")
        n_data = len(labels) + (1 if has_default else 0)
        super().__init__(name, 1 + n_data, 1)
        self.labels = tuple(int(v) for v in labels)
        self.has_default = has_default
        self.decision = None

    def register_coverage(
        self, registry: CoverageRegistry, parent: Optional[Branch]
    ) -> None:
        outcome_labels = [f"case_{v}" for v in self.labels]
        if self.has_default:
            outcome_labels.append("default")
        self.decision = registry.register_decision(
            self.path, DecisionKind.MULTIPORT, outcome_labels, parent
        )

    def compute(self, ctx, inputs: List[object]) -> List[object]:
        vo = ctx.vo
        control = inputs[0]
        data = inputs[1:]
        if vo.symbolic:
            control = vo.to_int(control)
            matches = [vo.eq(control, v) for v in self.labels]
            conditions = list(matches)
            if self.has_default:
                none_match = vo.lnot(matches[0])
                for match in matches[1:]:
                    none_match = vo.land(none_match, vo.lnot(match))
                conditions.append(none_match)
            ctx.record_outcome_conditions(self.decision, conditions)
            result = data[-1]
            for match, value in zip(reversed(matches), reversed(data[: len(matches)])):
                result = vo.ite(match, value, result)
            return [result]
        control = int(control)
        for index, label in enumerate(self.labels):
            if control == label:
                ctx.on_decision(self.decision, index)
                return [data[index]]
        if self.has_default:
            ctx.on_decision(self.decision, len(self.labels))
        return [data[-1]]


class IfBlock(Block):
    """An If/Elseif/Else decision source for action subsystems.

    Inputs are ``n`` boolean clause conditions; outcomes are
    ``if, elseif1, ..., else``.  The block produces no data outputs — action
    subsystems reference its outcomes through enable annotations.
    """

    def __init__(self, name: str, n_clauses: int, has_else: bool = True):
        if n_clauses < 1:
            raise ModelError("IfBlock needs at least one clause")
        super().__init__(name, n_clauses, 0)
        self.n_clauses = n_clauses
        self.has_else = has_else
        self.decision = None

    def register_coverage(
        self, registry: CoverageRegistry, parent: Optional[Branch]
    ) -> None:
        labels = ["if"] + [f"elseif{i}" for i in range(1, self.n_clauses)]
        if self.has_else:
            labels.append("else")
        self.decision = registry.register_decision(
            self.path, DecisionKind.IF, labels, parent
        )

    def compute(self, ctx, inputs: List[object]) -> List[object]:
        vo = ctx.vo
        conditions = [vo.to_bool(value) for value in inputs]
        if vo.symbolic:
            outcome_conditions = []
            none_before = None
            for condition in conditions:
                term = condition if none_before is None else vo.land(
                    none_before, condition
                )
                outcome_conditions.append(term)
                negated = vo.lnot(condition)
                none_before = negated if none_before is None else vo.land(
                    none_before, negated
                )
            if self.has_else:
                outcome_conditions.append(none_before)
            ctx.record_outcome_conditions(self.decision, outcome_conditions)
            return []
        for index, condition in enumerate(conditions):
            if condition:
                ctx.on_decision(self.decision, index)
                return []
        if self.has_else:
            ctx.on_decision(self.decision, self.n_clauses)
        return []


class SwitchCase(Block):
    """A Switch-Case decision source over an integer control input.

    ``cases`` is a list of label groups; case ``i`` is taken when the control
    equals any label in ``cases[i]``.  The optional default outcome is taken
    when nothing matches.
    """

    def __init__(self, name: str, cases: Sequence[Sequence[int]], has_default=True):
        if not cases:
            raise ModelError("SwitchCase needs at least one case")
        super().__init__(name, 1, 0)
        self.cases = tuple(tuple(int(v) for v in group) for group in cases)
        self.has_default = has_default
        self.decision = None

    def register_coverage(
        self, registry: CoverageRegistry, parent: Optional[Branch]
    ) -> None:
        labels = [
            "case_" + "_".join(str(v) for v in group) for group in self.cases
        ]
        if self.has_default:
            labels.append("default")
        self.decision = registry.register_decision(
            self.path, DecisionKind.SWITCH_CASE, labels, parent
        )

    def compute(self, ctx, inputs: List[object]) -> List[object]:
        vo = ctx.vo
        control = vo.to_int(inputs[0])
        if vo.symbolic:
            group_matches = []
            for group in self.cases:
                match = vo.eq(control, group[0])
                for label in group[1:]:
                    match = vo.lor(match, vo.eq(control, label))
                group_matches.append(match)
            conditions = []
            none_before = None
            for match in group_matches:
                term = match if none_before is None else vo.land(none_before, match)
                conditions.append(term)
                negated = vo.lnot(match)
                none_before = negated if none_before is None else vo.land(
                    none_before, negated
                )
            if self.has_default:
                conditions.append(none_before)
            ctx.record_outcome_conditions(self.decision, conditions)
            return []
        value = int(control)
        for index, group in enumerate(self.cases):
            if value in group:
                ctx.on_decision(self.decision, index)
                return []
        if self.has_default:
            ctx.on_decision(self.decision, len(self.cases))
        return []


class SubsystemOutput(Block):
    """Output latch of a conditionally executed subsystem.

    While the subsystem is active the latch passes its input through and
    stores it; while inactive it replays the held value (Simulink's "held"
    output option).  The held value is internal state.
    """

    def __init__(self, name: str, init, ty=None):
        super().__init__(name, 1, 1)
        self.init = init
        from repro.expr.types import type_of_value

        self.ty = ty if ty is not None else type_of_value(init)

    def state_spec(self) -> Sequence[StateElement]:
        return (StateElement("held", self.ty, self.init),)

    def compute(self, ctx, inputs: List[object]) -> List[object]:
        vo = ctx.vo
        held = ctx.read_state(self, "held")
        if vo.symbolic:
            return [vo.ite(ctx.active, inputs[0], held) if ctx.active is not True
                    else inputs[0]]
        return [inputs[0] if ctx.active else held]

    def update(self, ctx, inputs, outputs) -> None:
        # write_state is gated by activation, which is exactly the latch.
        ctx.write_state(self, "held", inputs[0])


class Selector(Block):
    """Reads ``array[index]`` with the index clamped into range."""

    def __init__(self, name: str, length: int):
        if length <= 0:
            raise ModelError("Selector needs a positive array length")
        super().__init__(name, 2, 1)
        self.length = length

    def compute(self, ctx, inputs: List[object]) -> List[object]:
        vo = ctx.vo
        index = vo.saturate(vo.to_int(inputs[1]), 0, self.length - 1)
        return [vo.select(inputs[0], index)]


class ArrayUpdate(Block):
    """Functional array write: ``y = array with [index] = value`` (clamped)."""

    def __init__(self, name: str, length: int):
        if length <= 0:
            raise ModelError("ArrayUpdate needs a positive array length")
        super().__init__(name, 3, 1)
        self.length = length

    def compute(self, ctx, inputs: List[object]) -> List[object]:
        vo = ctx.vo
        index = vo.saturate(vo.to_int(inputs[1]), 0, self.length - 1)
        return [vo.store(inputs[0], index, inputs[2])]


class Mux(Block):
    """Packs N scalars into a tuple signal."""

    def __init__(self, name: str, n_in: int):
        if n_in < 1:
            raise ModelError("Mux needs at least one input")
        super().__init__(name, n_in, 1)

    def compute(self, ctx, inputs: List[object]) -> List[object]:
        if ctx.vo.abstract:
            from repro.analysis.intervalops import lift

            return [tuple(lift(v) for v in inputs)]
        if ctx.vo.symbolic:
            from repro.expr import ops as x

            lifted = [x.lift(v) for v in inputs]
            if all(e.is_const for e in lifted):
                return [tuple(e.const_value() for e in lifted)]
            # Pack symbolic scalars as a store chain over a zero base array
            # of their common type (int when they differ).
            types = {e.ty for e in lifted}
            zero = coerce_value(0, types.pop()) if len(types) == 1 else 0
            base = x.lift(tuple([zero] * len(lifted)))
            for index, element in enumerate(lifted):
                base = x.store(base, index, element)
            return [base]
        return [tuple(inputs)]
