"""``Simulator.run_sequence``, input coercion, and kernel edge paths."""

import random
from collections import defaultdict

import pytest

from repro.coverage.collector import CoverageCollector
from repro.errors import SimulationError
from repro.expr.types import REAL
from repro.model import ModelBuilder
from repro.model.blocks import MovingAccumulator
from repro.model.graph import Signal
from repro.model.inputs import random_input
from repro.model.simulator import Simulator

from tests.conftest import build_counter_model, build_queue_model


def _sequence(compiled, seed, steps):
    rng = random.Random(seed)
    return [random_input(compiled.inports, rng) for _ in range(steps)]


class TestSequenceResult:
    def test_aggregates_match_a_step_loop(self):
        compiled = build_queue_model()
        sequence = _sequence(compiled, 11, 40)

        ref_model = build_queue_model()
        reference = Simulator(ref_model, CoverageCollector(ref_model.registry), kernel=False)
        expected_branches = []
        expected_obligations = 0
        expected_covering = 0
        for index, inputs in enumerate(sequence):
            result = reference.step(inputs)
            expected_branches.extend(result.new_branch_ids)
            expected_obligations += len(result.new_obligations)
            if result.found_new_coverage:
                expected_covering = index + 1

        outcome = Simulator(compiled, CoverageCollector(compiled.registry)).run_sequence(sequence)
        assert outcome.steps == len(sequence)
        assert list(outcome.new_branch_ids) == expected_branches
        assert outcome.new_obligation_count == expected_obligations
        assert outcome.last_covering_step == expected_covering
        assert outcome.found_new_coverage

    def test_replaying_a_covered_sequence_covers_nothing(self):
        compiled = build_counter_model()
        sim = Simulator(compiled, CoverageCollector(compiled.registry))
        sequence = _sequence(compiled, 5, 20)
        assert sim.run_sequence(sequence).found_new_coverage
        sim.reset()
        rerun = sim.run_sequence(sequence)
        assert rerun.last_covering_step == 0
        assert rerun.new_branch_ids == ()
        assert not rerun.found_new_coverage

    def test_on_step_sees_indices_ids_and_updated_state(self):
        compiled = build_counter_model()
        sequence = _sequence(compiled, 9, 15)

        ref_model = build_counter_model()
        reference = Simulator(ref_model, CoverageCollector(ref_model.registry), kernel=False)
        expected = []
        for inputs in sequence:
            result = reference.step(inputs)
            expected.append(
                (
                    tuple(result.new_branch_ids),
                    result.found_new_coverage,
                    reference.get_state().values,
                )
            )

        sim = Simulator(compiled, CoverageCollector(compiled.registry))
        seen = []

        def on_step(index, new_branch_ids, found_new):
            seen.append(
                (index, new_branch_ids, found_new, sim.get_state().values)
            )

        sim.run_sequence(sequence, on_step=on_step)
        assert [entry[0] for entry in seen] == list(range(len(sequence)))
        assert [entry[1:] for entry in seen] == expected

    def test_run_compat_matches_step_loop(self):
        compiled = build_counter_model()
        sequence = _sequence(compiled, 2, 10)
        loop_model = build_counter_model()
        loop = Simulator(loop_model, CoverageCollector(loop_model.registry))
        expected = [loop.step(inputs) for inputs in sequence]
        results = Simulator(compiled, CoverageCollector(compiled.registry)).run(sequence)
        assert [r.outputs for r in results] == [r.outputs for r in expected]
        assert [r.new_branch_ids for r in results] == [
            r.new_branch_ids for r in expected
        ]


@pytest.mark.parametrize("kernel", [True, False], ids=["kernel", "interp"])
class TestInputCoercion:
    """The per-inport coercers are resolved once per simulator and must
    keep the interpreter's exact semantics on both paths."""

    def test_missing_input_raises_simulation_error(self, kernel):
        sim = Simulator(build_counter_model(), kernel=kernel)
        with pytest.raises(SimulationError, match="missing input 'amount'"):
            sim.step({"tick": True})

    def test_missing_key_raises_even_on_defaultdict(self, kernel):
        # The membership check (not a KeyError guard) decides "missing":
        # a defaultdict would silently manufacture values otherwise.
        sim = Simulator(build_counter_model(), kernel=kernel)
        with pytest.raises(SimulationError, match="missing input"):
            sim.step(defaultdict(int, {"tick": True}))

    def test_values_coerce_to_declared_types(self, kernel):
        sim = Simulator(build_counter_model(), kernel=kernel)
        result = sim.step({"tick": 1, "amount": 2.9})
        # tick -> bool(1), amount -> int(2.9) == 2
        assert result.outputs["count"] == 2
        assert isinstance(result.outputs["count"], int)

    def test_coercers_pinned_per_inport(self, kernel):
        sim = Simulator(build_counter_model(), kernel=kernel)
        assert [name for name, _ in sim._coercers] == ["tick", "amount"]
        coerced = {
            name: coerce for name, coerce in sim._coercers
        }
        assert coerced["tick"](1) is True
        assert coerced["amount"](2.9) == 2


class TestForwardSlotRaiser:
    def test_error_is_identical_to_the_interpreter(self):
        """A block that reads a signal produced later in the plan has no
        step template; every kernel step raises the interpreter's exact
        error, and the model is reported as running on the interpreter."""
        b = ModelBuilder("Forward")
        u = b.inport("u", REAL, -5.0, 5.0)
        doubled = b.gain(u, 2.0)
        lag = b.unit_delay(doubled, init=0.0, name="lag")
        b.model.add_ordering(lag.block, doubled.block)
        b.outport("lag", lag)
        sim_k = Simulator(b.compile(), kernel=True)
        sim_i = Simulator(sim_k.compiled, kernel=False)
        for _ in range(2):
            with pytest.raises(SimulationError) as interpreted:
                sim_i.step({"u": 1.0})
            with pytest.raises(SimulationError) as compiled_error:
                sim_k.step({"u": 1.0})
            assert str(compiled_error.value) == str(interpreted.value)
        assert "before it ran" in str(compiled_error.value)
        stats = sim_k.kernel_stats()
        assert stats["fallback_blocks"] == len(sim_k.compiled.plan)
        assert stats["specialized_blocks"] == stats["kernel_steps"] == 0


class TestFallbackBlocks:
    """A block with tuple state, which no kernel code names: the
    generated step runs it from its symbolic semantics."""

    def _build(self):
        b = ModelBuilder("Window")
        u = b.inport("u", REAL, -5.0, 5.0)
        acc = b._add(MovingAccumulator("acc", 3))
        b._wire(acc, u)
        total = Signal(acc, 0)
        high = b.compare(total, ">", 4.0, name="is_high")
        b.outport("mode", b.switch(high, b.const(2), b.const(1)))
        b.outport("total", total)
        return b.compile()

    def test_unregistered_block_runs_in_the_generated_step(self):
        compiled = self._build()
        sim = Simulator(compiled)
        for inputs in _sequence(compiled, 13, 3):
            sim.step(inputs)
        stats = sim.kernel_stats()
        assert stats["fallback_blocks"] == 0
        assert stats["fallback_classes"] == []
        assert stats["specialized_blocks"] == len(compiled.plan)
        assert stats["kernel_steps"] == 3

    def test_fallback_is_bit_identical_to_the_interpreter(self):
        compiled = self._build()
        sim_k = Simulator(compiled, CoverageCollector(compiled.registry))
        other = self._build()
        sim_i = Simulator(other, CoverageCollector(other.registry), kernel=False)
        for inputs in _sequence(compiled, 13, 60):
            a = sim_k.step(inputs)
            b = sim_i.step(inputs)
            assert a.outputs == b.outputs
            assert a.new_branch_ids == b.new_branch_ids
            assert sim_k.get_state().values == sim_i.get_state().values
