"""One-step execution of a compiled model (concrete or symbolic)."""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import SimulationError
from repro.model.context import StepContext
from repro.model.graph import CompiledModel, PlanItem


def execute_step(compiled: CompiledModel, ctx: StepContext) -> Dict[str, object]:
    """Run every block of the plan once; returns the outport values.

    The context's mode decides whether values are concrete or symbolic.
    Next-state values accumulate in ``ctx.next_state``; the caller merges
    them into its state environment (the simulator) or keeps them as the
    step template's next state (:meth:`CompiledModel.step_template`).

    This is the generic interpreter: it dispatches through ``compute`` /
    ``update`` on every block.  The concrete fast path is the step
    generated from the step template (:mod:`repro.kernel.stepgen`), which
    must stay observably equivalent to this loop.
    """
    plan = compiled.plan
    input_slots = compiled.input_slots
    outputs_per_item: List[Optional[List[object]]] = [None] * len(plan)
    actives: List[object] = [True] * len(plan)
    for item in plan:
        input_values = _gather_inputs(
            item, outputs_per_item, input_slots[item.index]
        )
        active = _item_active(item, actives, ctx)
        actives[item.index] = active
        ctx.active = active
        outputs = item.block.compute(ctx, input_values)
        if len(outputs) != item.block.n_out:
            raise SimulationError(
                f"{item.block.path!r} produced {len(outputs)} outputs, "
                f"declared {item.block.n_out}"
            )
        item.block.update(ctx, input_values, outputs)
        outputs_per_item[item.index] = outputs

    ctx.active = True
    result: Dict[str, object] = {}
    for name, index, port in compiled.outport_slots:
        values = outputs_per_item[index]
        assert values is not None
        result[name] = values[port]
    return result


def _gather_inputs(
    item: PlanItem, outputs_per_item, slots: Tuple[Tuple[int, int], ...]
) -> List[object]:
    values: List[object] = []
    for signal, (index, port) in zip(item.input_signals, slots):
        block_outputs = outputs_per_item[index]
        if block_outputs is None:
            raise SimulationError(
                f"{item.block.path!r} reads {signal.block.path!r} before it ran "
                "(nondirect port feeding a direct one?)"
            )
        values.append(block_outputs[port])
    return values


def _item_active(item: PlanItem, actives: List[object], ctx: StepContext):
    if item.enable is None:
        return True
    decision = getattr(item.enable.block, "decision", None)
    if decision is None:
        raise SimulationError(
            f"enable source {item.enable.block.path!r} has no decision"
        )
    assert item.enable_index is not None
    parent_active = actives[item.enable_index]
    if ctx.vo.symbolic:
        conditions = ctx.outcome_conditions.get(decision.decision_id)
        if conditions is None:
            raise SimulationError(
                f"decision {decision.path!r} recorded no outcome conditions"
            )
        return ctx.vo.land(parent_active, conditions[item.enable.outcome])
    taken = ctx.taken_outcomes.get(decision.decision_id)
    return bool(parent_active) and taken == item.enable.outcome
