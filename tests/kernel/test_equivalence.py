"""Kernel/interpreter equivalence over every registry model.

The fixed-seed contract of ``repro.kernel``: under identical input
sequences, a kernel simulator and an interpreter simulator are
**bit-identical** — same outputs (values and types), same coverage events
in the same order, same taken outcomes, same state trajectory, same final
coverage numbers.
"""

import random

import pytest

from repro.coverage.collector import CoverageCollector
from repro.model.inputs import random_input
from repro.model.simulator import Simulator
from repro.models.registry import BENCHMARKS, SIMPLE_CPUTASK

from tests.conftest import build_counter_model, build_queue_model

STEPS = 160
SEED = 42

MODELS = list(BENCHMARKS) + [SIMPLE_CPUTASK]


def _sequence(compiled, seed, steps):
    rng = random.Random(seed)
    return [random_input(compiled.inports, rng) for _ in range(steps)]


def _assert_steps_identical(a, b):
    assert a.outputs == b.outputs
    for name in a.outputs:
        assert type(a.outputs[name]) is type(b.outputs[name]), name
    assert a.new_branch_ids == b.new_branch_ids
    assert a.taken_outcomes == b.taken_outcomes
    assert a.new_obligations == b.new_obligations


@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.name)
def test_registry_model_bit_identical(model):
    compiled_k = model.build()
    compiled_i = model.build()
    collector_k = CoverageCollector(compiled_k.registry)
    collector_i = CoverageCollector(compiled_i.registry)
    sim_k = Simulator(compiled_k, collector_k, kernel=True)
    sim_i = Simulator(compiled_i, collector_i, kernel=False)
    assert sim_k.kernel_enabled and not sim_i.kernel_enabled

    for inputs in _sequence(compiled_k, SEED, STEPS):
        result_k = sim_k.step(inputs)
        result_i = sim_i.step(inputs)
        _assert_steps_identical(result_k, result_i)
        assert sim_k.get_state().values == sim_i.get_state().values
    assert collector_k.decision_coverage() == collector_i.decision_coverage()
    assert collector_k.condition_coverage() == collector_i.condition_coverage()
    assert collector_k.mcdc_coverage() == collector_i.mcdc_coverage()


@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.name)
def test_registry_models_fully_specialize(model):
    """No registry model falls back to the interpreter: each has a
    generated step, and every step runs through it."""
    compiled = model.build()
    sim = Simulator(compiled)
    for inputs in _sequence(compiled, SEED, 5):
        sim.step(inputs)
    stats = sim.kernel_stats()
    assert stats["fallback_blocks"] == 0, stats["fallback_classes"]
    assert stats["specialized_blocks"] == len(compiled.plan) > 0
    assert stats["kernel_steps"] == 5
    assert compiled.step_function() is not None


class TestSnapshotRestore:
    def test_state_jump_mid_sequence_is_identical(self):
        """``set_state`` to a captured snapshot replays identically on
        both paths (STCG's tree jumps run through exactly this)."""
        compiled = build_counter_model()
        sim_k = Simulator(compiled, kernel=True)
        sim_i = Simulator(build_counter_model(), kernel=False)
        sequence = _sequence(compiled, 7, 30)
        for inputs in sequence[:15]:
            sim_k.step(inputs)
            sim_i.step(inputs)
        snapshot = sim_k.get_state()
        assert snapshot.values == sim_i.get_state().values

        for inputs in sequence[15:]:
            sim_k.step(inputs)
            sim_i.step(inputs)
        sim_k.set_state(snapshot)
        sim_i.set_state(snapshot)
        for inputs in sequence[15:]:
            _assert_steps_identical(sim_k.step(inputs), sim_i.step(inputs))

    def test_reset_returns_to_initial_state(self):
        compiled = build_queue_model()
        sim = Simulator(compiled)
        for inputs in _sequence(compiled, 3, 10):
            sim.step(inputs)
        sim.reset()
        assert sim.get_state().values == compiled.initial_state()
        assert sim.time_index == 0


class TestKernelStats:
    def test_interpreter_simulator_reports_none(self):
        sim = Simulator(build_counter_model(), kernel=False)
        assert sim.kernel_stats() is None

    def test_kernel_steps_count_executed_steps(self):
        compiled = build_counter_model()
        sim = Simulator(compiled)
        for inputs in _sequence(compiled, 1, 5):
            sim.step(inputs)
        assert sim.kernel_stats()["kernel_steps"] == 5
