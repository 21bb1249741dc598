"""SLDV's bounded unroll, composed from the step template, equals
step-by-step symbolic execution.

``_IncrementalUnroll`` builds step ``k`` by substituting step ``k-1``'s
next state and the ``name@k`` inport variables into the model's step
template.  The reference below runs one full symbolic ``execute_step``
per step instead, threading the state from step to step.  By depth 8 the
unrolled DAGs share heavily, so they are compared with a DAG-aware
interner rather than ``Expr.__eq__``.
"""

import pytest

from repro.baselines.sldv import SldvConfig, _IncrementalUnroll
from repro.expr import ops as x
from repro.model.context import symbolic_context
from repro.model.executor import execute_step
from repro.models.registry import benchmark_names, get_benchmark

from tests.expr_dag import DagInterner


class ReferenceUnroll:
    """Bounded unroll by symbolic execution of every step."""

    def __init__(self, compiled):
        self.compiled = compiled
        self.state_env = compiled.initial_state()
        self.step_conditions = []

    def extend(self):
        step = len(self.step_conditions)
        variables = self.compiled.input_variables(suffix=f"@{step}")
        inputs = {
            spec.name: var for spec, var in zip(self.compiled.inports, variables)
        }
        ctx = symbolic_context(inputs, self.state_env, time_index=step)
        execute_step(self.compiled, ctx)
        self.step_conditions.append(ctx.outcome_conditions)
        self.state_env = {**self.state_env, **ctx.next_state}


@pytest.mark.parametrize("name", benchmark_names())
def test_composed_unroll_equals_executed_unroll(name):
    compiled = get_benchmark(name).build()
    unroll = _IncrementalUnroll(compiled)
    reference = ReferenceUnroll(compiled)
    interner = DagInterner()
    for depth in range(1, SldvConfig().max_depth + 1):
        unroll.extend()
        reference.extend()
        assert unroll.depth == depth
        assert interner.canon(unroll.step_conditions) == interner.canon(
            reference.step_conditions
        ), depth
        assert interner.canon(unroll._state) == interner.canon(
            {path: x.lift(value) for path, value in reference.state_env.items()}
        ), depth
    assert [v.name for v in unroll.variables] == [
        f"{spec.name}@{step}"
        for step in range(unroll.depth)
        for spec in compiled.inports
    ]
