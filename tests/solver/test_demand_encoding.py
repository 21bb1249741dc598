"""On-demand one-step encodings answer like completed ones.

``OneStepEncoding`` records a decision's outcome conditions or a
condition point's atoms only when a query first reads them.  Whatever the
query order — shuffled, or later plan items before the data-store readers
they follow — every answer must be structurally equal (``==``) to the
answer of an encoding that recorded the whole step first (``complete()``).
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.coverage.collector import CoverageCollector
from repro.model.blocks.datastore import DataStoreRead, DataStoreWrite
from repro.model.inputs import random_input
from repro.model.simulator import Simulator
from repro.models.registry import BENCHMARKS, SIMPLE_CPUTASK
from repro.solver.encoder import OneStepEncoding

MODELS = {model.name: model for model in [*BENCHMARKS, SIMPLE_CPUTASK]}

_COMPILED = {}


def compiled_model(name):
    """One compiled model per name: its template is built once."""
    if name not in _COMPILED:
        _COMPILED[name] = MODELS[name].build()
    return _COMPILED[name]


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
        assert lazy._outcome_conditions == full._outcome_conditions
        assert lazy._condition_atoms == full._condition_atoms
        assert lazy.next_state_expressions() == full.next_state_expressions()


class TestDataStoreGroups:
    """CPUTask: queries of blocks after a data store's later writer and
    its ``read_current`` reader, asked before any query of the earlier
    blocks, must still answer as in a full step."""

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

    def _plan_index(self, compiled, target):
        """Plan index of the block that records ``target``'s entry."""
        index_of = {item.block.path: item.index for item in compiled.plan}
        kind, payload = target
        if kind == "branch":
            return index_of[payload.decision.path]
        return index_of[
            compiled.registry.condition_point(payload.point_id).path
        ]

    @given(steps=st.integers(0, 25), seed=st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_later_writer_before_current_reader(self, steps, seed):
        compiled = compiled_model("CPUTask")
        writers, readers = self._store_items(compiled, "valid")
        assert len(writers) >= 2 and readers
        assert writers[-1] < readers[0]
        state = reachable_state(compiled, steps, seed)
        targets = sorted(
            all_targets(compiled),
            key=lambda target: -self._plan_index(compiled, target),
        )
        assert self._plan_index(compiled, targets[0]) > writers[-1]
        full = OneStepEncoding(compiled, state).complete()
        lazy = OneStepEncoding(compiled, state)
        for target in targets:
            assert answer(lazy, target) == answer(full, target), target
        assert lazy.next_state_expressions() == full.next_state_expressions()
