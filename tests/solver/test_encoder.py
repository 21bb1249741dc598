"""Tests for the one-step encoder and the SLDV-like bounded unroll.

The central correctness property of the whole reproduction: *the symbolic
one-step encoding agrees with concrete execution* — for any state and any
input, a branch's recorded condition evaluates true exactly when concrete
simulation from that state takes the branch.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.sldv import _IncrementalUnroll
from repro.coverage import CoverageCollector
from repro.expr.evaluator import evaluate
from repro.model import Simulator
from repro.model.inputs import random_input
from repro.solver.encoder import OneStepEncoding
from repro.solver.engine import SolverConfig, SolverEngine, Status

from tests.conftest import build_counter_model, build_queue_model


def concrete_outcomes(compiled, state, inputs):
    """Decision outcomes taken when stepping concretely from ``state``."""
    simulator = Simulator(compiled, CoverageCollector(compiled.registry))
    simulator.set_state(state)
    result = simulator.step(inputs)
    return result.taken_outcomes


class TestEncodingDoesNotTouchState:
    """Encodings are cached and shared; the snapshot they were built from
    must never be aliased or mutated by construction."""

    def _walk_to_state(self, compiled, steps=3, seed=0):
        rng = random.Random(seed)
        simulator = Simulator(compiled, CoverageCollector(compiled.registry))
        for _ in range(steps):
            simulator.step(random_input(compiled.inports, rng))
        return simulator.get_state()

    @pytest.mark.parametrize("build", [build_counter_model, build_queue_model])
    def test_one_step_encoding_leaves_state_untouched(self, build):
        compiled = build()
        state = self._walk_to_state(compiled)
        before = state.values
        fingerprint_before = state.fingerprint()
        encoding = OneStepEncoding(compiled, state)
        assert state.values == before
        assert state.fingerprint() == fingerprint_before
        # The encoding's next-state map is its own dict, not the snapshot's.
        next_state = encoding.next_state_expressions()
        next_state["__poison__"] = object()
        assert "__poison__" not in state.values


class TestOneStepAgreement:
    def _check_agreement(self, compiled, state, inputs):
        encoding = OneStepEncoding(compiled, state)
        taken = concrete_outcomes(compiled, state, inputs)
        for decision_id, outcome in taken.items():
            branch = compiled.registry.decision(decision_id).branches[outcome]
            condition = encoding.branch_condition(branch)
            assert evaluate(condition, inputs) is True, (
                f"branch {branch.label} taken concretely but its symbolic "
                "condition is false"
            )
            # And the *other* outcomes' conditions must be false.
            for other in compiled.registry.decision(decision_id).branches:
                if other.outcome != outcome:
                    other_cond = encoding.branch_condition(other)
                    assert evaluate(other_cond, inputs) is False

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_counter_model(self, seed):
        compiled = build_counter_model()
        rng = random.Random(seed)
        simulator = Simulator(compiled, CoverageCollector(compiled.registry))
        # Walk a few random steps to reach a non-trivial state.
        for _ in range(rng.randint(0, 5)):
            simulator.step(random_input(compiled.inports, rng))
        state = simulator.get_state()
        inputs = random_input(compiled.inports, rng)
        self._check_agreement(compiled, state, inputs)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_queue_model(self, seed):
        compiled = build_queue_model()
        rng = random.Random(seed)
        simulator = Simulator(compiled, CoverageCollector(compiled.registry))
        for _ in range(rng.randint(0, 8)):
            simulator.step(random_input(compiled.inports, rng))
        state = simulator.get_state()
        inputs = random_input(compiled.inports, rng)
        self._check_agreement(compiled, state, inputs)


class TestPathConstraints:
    def test_child_constraint_includes_parent(self, queue_model):
        compiled = queue_model
        simulator = Simulator(compiled, CoverageCollector(compiled.registry))
        encoding = OneStepEncoding(compiled, simulator.get_state())
        deep = [b for b in compiled.registry.branches if b.depth > 0]
        assert deep, "queue model should have nested branches"
        branch = deep[0]
        constraint = encoding.path_constraint(branch)
        # A model of the path constraint must also satisfy the parent.
        engine = SolverEngine(SolverConfig(seed=0))
        result = engine.solve(constraint, encoding.variables)
        if result.status is Status.SAT:
            parent_cond = encoding.branch_condition(branch.parent)
            assert evaluate(parent_cond, result.model) is True

    def test_solved_input_covers_branch_concretely(self, queue_model):
        """End-to-end: solve a branch, execute, observe it covered."""
        compiled = queue_model
        collector = CoverageCollector(compiled.registry)
        simulator = Simulator(compiled, collector)
        state = simulator.get_state()
        encoding = OneStepEncoding(compiled, state)
        engine = SolverEngine(SolverConfig(seed=0))
        for branch in compiled.registry.branches_by_depth():
            constraint = encoding.path_constraint(branch)
            result = engine.solve(constraint, encoding.variables)
            if result.status is not Status.SAT:
                continue
            simulator.set_state(state)
            step = simulator.step(result.model)
            taken = step.taken_outcomes.get(branch.decision.decision_id)
            assert taken == branch.outcome


class TestStateAwareness:
    def test_unreachable_branch_folds_false(self, queue_model):
        """From the empty-queue state, pop-success folds to constant false."""
        compiled = queue_model
        simulator = Simulator(compiled, CoverageCollector(compiled.registry))
        encoding = OneStepEncoding(compiled, simulator.get_state())
        pop_ok = next(
            b for b in compiled.registry.branches
            if "Switch" in b.label and b.depth > 0 and "o1" in b.label
            and b.label.endswith("false")
        )
        condition = encoding.branch_condition(pop_ok)
        # Empty queue: the miss condition is constantly true, so the
        # "found" outcome (control false) is constantly false.
        assert condition.is_const

    def test_becomes_solvable_after_push(self, queue_model):
        compiled = queue_model
        simulator = Simulator(compiled, CoverageCollector(compiled.registry))
        simulator.step({"op": 1, "key": 9})
        encoding = OneStepEncoding(compiled, simulator.get_state())
        # Now a pop with key 9 succeeds: find the branch and solve it.
        engine = SolverEngine(SolverConfig(seed=0))
        matched_keys = []
        for branch in compiled.registry.branches:
            if branch.depth == 0:
                continue
            constraint = encoding.path_constraint(branch)
            result = engine.solve(constraint, encoding.variables)
            if result.status is Status.SAT and result.model.get("op") == 2:
                matched_keys.append(result.model["key"])
        # The pop-success branch forces the key to match the pushed entry.
        assert 9 in matched_keys


def unrolled(compiled, depth):
    """The SLDV-like baseline's bounded unroll, extended to ``depth``."""
    unroll = _IncrementalUnroll(compiled)
    for _ in range(depth):
        unroll.extend()
    return unroll


class TestUnrolledEncoding:
    def test_variables_per_step(self, counter_model):
        encoding = unrolled(counter_model, 3)
        names = {v.name for v in encoding.variables}
        assert "tick@0" in names and "amount@2" in names
        assert len(encoding.variables) == 6

    def test_decode_sequence(self, counter_model):
        encoding = unrolled(counter_model, 2)
        model = {
            "tick@0": True, "amount@0": 5, "tick@1": False, "amount@1": 2,
        }
        sequence = encoding.decode_sequence(model, 1)
        assert sequence == [
            {"tick": True, "amount": 5},
            {"tick": False, "amount": 2},
        ]

    def test_multi_step_needle_solvable(self, counter_model):
        """count > 15 requires two max-amount ticks: a 2-step constraint."""
        compiled = counter_model
        encoding = unrolled(compiled, 2)
        high_branch = next(
            b for b in compiled.registry.branches
            if b.label.endswith("level:true")
        )
        constraint = encoding.path_constraint(high_branch, 1)
        engine = SolverEngine(
            SolverConfig(seed=0, max_samples=200, avm_evaluations=4000,
                         time_budget_s=3.0)
        )
        result = engine.solve(constraint, encoding.variables)
        assert result.status is Status.SAT
        # Execute the decoded sequence and confirm the branch is covered.
        collector = CoverageCollector(compiled.registry)
        simulator = Simulator(compiled, collector)
        for step_inputs in encoding.decode_sequence(result.model, 1):
            simulator.step(step_inputs)
        assert collector.is_branch_covered(high_branch)


class TestObligationConstraints:
    def test_unreachable_point_gives_false(self, queue_model):
        compiled = queue_model
        simulator = Simulator(compiled, CoverageCollector(compiled.registry))
        encoding = OneStepEncoding(compiled, simulator.get_state())
        from repro.coverage.collector import ConditionObligation

        # Point ids beyond any recorded: should yield constant false.
        bogus = ConditionObligation(10_000, 0, True, False)
        constraint = encoding.obligation_constraint(bogus)
        assert constraint.is_const and constraint.const_value() is False

    def test_value_obligation_solvable_and_observed(self, queue_model):
        compiled = queue_model
        collector = CoverageCollector(compiled.registry)
        simulator = Simulator(compiled, collector)
        simulator.step({"op": 1, "key": 3})  # one entry in the queue
        state = simulator.get_state()
        encoding = OneStepEncoding(compiled, state)
        engine = SolverEngine(SolverConfig(seed=0))
        for obligation in collector.unsatisfied_condition_obligations():
            constraint = encoding.obligation_constraint(obligation)
            result = engine.solve(constraint, encoding.variables)
            if result.status is not Status.SAT:
                continue
            simulator.set_state(state)
            simulator.step(result.model)
            assert collector.is_obligation_satisfied(obligation)
            break
        else:
            pytest.skip("no solvable obligation from this state")
