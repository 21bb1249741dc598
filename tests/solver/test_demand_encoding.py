"""Demand-driven one-step encodings answer exactly like full symbolic steps.

``OneStepEncoding`` executes, per query, only the static cone of the plan
item recording the requested decision or condition point.  Whatever the
query order, every answer must be structurally equal (``==``) to the
answer of an encoding that ran the whole step first (``complete()``),
and ``complete()`` must record exactly what ``execute_step`` records.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.coverage.collector import CoverageCollector
from repro.model.blocks.datastore import DataStoreRead, DataStoreWrite
from repro.model.context import symbolic_context
from repro.model.executor import execute_step
from repro.model.inputs import random_input
from repro.model.simulator import Simulator
from repro.models.registry import BENCHMARKS, SIMPLE_CPUTASK
from repro.solver.encoder import OneStepEncoding

MODELS = {model.name: model for model in [*BENCHMARKS, SIMPLE_CPUTASK]}


def compiled_model(name):
    return MODELS[name].build()


def reachable_state(compiled, steps, seed):
    rng = random.Random(seed)
    simulator = Simulator(compiled, CoverageCollector(compiled.registry))
    for _ in range(steps):
        simulator.step(random_input(compiled.inports, rng))
    return simulator.get_state()


def all_targets(compiled):
    obligations = CoverageCollector(
        compiled.registry
    ).all_condition_obligations()
    return [("branch", b) for b in compiled.registry.branches] + [
        ("obligation", o) for o in obligations
    ]


def answer(encoding, target):
    kind, payload = target
    if kind == "branch":
        return encoding.path_constraint(payload)
    return encoding.obligation_constraint(payload)


class TestQueryOrderIndependence:
    @pytest.mark.parametrize("name", MODELS)
    @given(
        steps=st.integers(0, 25),
        seed=st.integers(0, 10_000),
        order_seed=st.integers(0, 10_000),
    )
    @settings(max_examples=25, deadline=None)
    def test_random_query_order_matches_complete(
        self, name, steps, seed, order_seed
    ):
        compiled = compiled_model(name)
        state = reachable_state(compiled, steps, seed)
        targets = all_targets(compiled)
        random.Random(order_seed).shuffle(targets)
        full = OneStepEncoding(compiled, state).complete()
        lazy = OneStepEncoding(compiled, state)
        for target in targets:
            assert answer(lazy, target) == answer(full, target), target
        assert lazy.next_state_expressions() == full.next_state_expressions()

    @pytest.mark.parametrize("name", MODELS)
    def test_complete_records_what_execute_step_records(self, name):
        compiled = compiled_model(name)
        state = reachable_state(compiled, 10, 3)
        full = OneStepEncoding(compiled, state).complete()
        variables = compiled.input_variables()
        ctx = symbolic_context({v.name: v for v in variables}, state.values)
        execute_step(compiled, ctx)
        assert full._outcome_conditions == ctx.outcome_conditions
        assert full._condition_atoms == ctx.condition_atoms

    def test_single_query_runs_only_its_cone(self):
        compiled = compiled_model("NICProtocol")
        encoding = OneStepEncoding(compiled, reachable_state(compiled, 0, 0))
        branch = compiled.registry.branches[0]
        encoding.branch_condition(branch)
        owner = compiled.decision_owner[branch.decision.decision_id]
        assert encoding._ran == compiled.cones[owner]
        assert encoding._ran != (1 << len(compiled.plan)) - 1


class TestDataStoreGroups:
    """CPUTask: a later writer's cone computed before the ``read_current``
    reader's cone must still leave the reader, and the next state, as in
    a full step — the store's writers and current readers run together."""

    def _store_items(self, compiled, store):
        writers = [
            item.index for item in compiled.plan
            if isinstance(item.block, DataStoreWrite)
            and item.block.store == store
        ]
        readers = [
            item.index for item in compiled.plan
            if isinstance(item.block, DataStoreRead)
            and item.block.store == store and item.block.read_current
        ]
        return writers, readers

    @given(steps=st.integers(0, 25), seed=st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_later_writer_before_current_reader(self, steps, seed):
        compiled = compiled_model("CPUTask")
        writers, readers = self._store_items(compiled, "valid")
        assert len(writers) >= 2 and readers
        state = reachable_state(compiled, steps, seed)
        full = OneStepEncoding(compiled, state).complete()
        lazy = OneStepEncoding(compiled, state)
        lazy._run_cone(compiled.cones[writers[-1]])
        lazy._run_cone(compiled.cones[readers[0]])
        assert lazy._outputs[readers[0]] == full._outputs[readers[0]]
        for target in all_targets(compiled):
            assert answer(lazy, target) == answer(full, target), target
        assert lazy.next_state_expressions() == full.next_state_expressions()

    def test_group_members_share_one_cone(self):
        compiled = compiled_model("CPUTask")
        writers, readers = self._store_items(compiled, "valid")
        cones = {compiled.cones[index] for index in writers + readers}
        assert len(cones) == 1
