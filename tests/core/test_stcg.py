"""Tests for the STCG generator: the paper's Algorithms 1 and 2."""

import itertools

import pytest

from repro.core import StcgConfig, StcgGenerator
from repro.core.result import ORIGIN_RANDOM, ORIGIN_SOLVER

from tests.conftest import build_queue_model


def run_stcg(compiled, **overrides):
    defaults = dict(budget_s=10.0, seed=0)
    defaults.update(overrides)
    generator = StcgGenerator(compiled, StcgConfig(**defaults))
    return generator, generator.run()


class TestFullCoverage:
    def test_counter_model_full_coverage(self, counter_model):
        generator, result = run_stcg(counter_model)
        assert result.decision == 1.0
        assert result.condition == 1.0
        assert not generator.collector.uncovered_branches()

    def test_queue_model_full_coverage(self, queue_model):
        generator, result = run_stcg(queue_model)
        assert result.decision == 1.0
        assert result.mcdc == 1.0

    def test_stops_early_on_full_coverage(self, counter_model):
        generator, result = run_stcg(counter_model, budget_s=60.0)
        # Must finish long before the budget on this tiny model.
        assert all(e.t < 10.0 for e in result.timeline)


class TestStateAwareMechanics:
    def test_state_dependent_branch_needs_tree(self, queue_model):
        """Pop-success is unreachable from S0; the tree makes it solvable."""
        generator, result = run_stcg(queue_model)
        pop_branches = [
            b for b in queue_model.registry.branches
            if b.depth > 0 and "o1" in b.label
        ]
        assert all(
            generator.collector.is_branch_covered(b) for b in pop_branches
        )
        # At least one constant-false skip must have occurred (the pop
        # branch folds to false on the empty-queue root state).
        assert generator.stats["const_false_skips"] > 0

    def test_solved_inputs_stored_in_library(self, queue_model):
        generator, _ = run_stcg(queue_model)
        assert len(generator.library) > 0

    def test_tree_grows(self, queue_model):
        generator, result = run_stcg(queue_model)
        assert result.stats["tree_nodes"] > 1

    def test_test_cases_have_origins(self, queue_model):
        _, result = run_stcg(queue_model)
        assert len(result.suite) > 0
        for case in result.suite:
            assert case.origin in (ORIGIN_SOLVER, ORIGIN_RANDOM)

    def test_timeline_is_monotone(self, queue_model):
        _, result = run_stcg(queue_model)
        times = [e.t for e in result.timeline]
        assert times == sorted(times)
        coverages = [e.decision_coverage for e in result.timeline]
        assert coverages == sorted(coverages)


class TestDeterminism:
    def test_same_seed_same_result(self, queue_model):
        from tests.conftest import build_queue_model

        _, a = run_stcg(build_queue_model(), seed=42)
        _, b = run_stcg(build_queue_model(), seed=42)
        assert a.decision == b.decision
        assert len(a.suite) == len(b.suite)
        assert [c.inputs for c in a.suite] == [c.inputs for c in b.suite]


class TestBudget:
    def test_wall_clock_budget_respected(self, queue_model):
        import time

        start = time.monotonic()
        run_stcg(queue_model, budget_s=1.0)
        assert time.monotonic() - start < 4.0

    def test_injected_clock(self, counter_model):
        ticks = itertools.count(start=0.0, step=0.5)
        generator = StcgGenerator(
            counter_model,
            StcgConfig(budget_s=3.0, seed=0),
            clock=lambda: next(ticks) * 1.0,
        )
        result = generator.run()  # terminates via the fake clock
        assert result is not None


class TestConfigVariants:
    def test_random_warmup_runs_first(self, queue_model):
        generator, result = run_stcg(
            queue_model, budget_s=6.0, random_warmup_s=1.0
        )
        assert generator.stats["warmup_steps"] > 0

    @pytest.mark.parametrize("mix", [0.0, 1.0])
    def test_library_only_mode(self, queue_model, mix):
        # Queue model is solvable library-only (0.0) and fresh-only (1.0).
        generator, result = run_stcg(
            queue_model, budget_s=5.0, fresh_input_mix=mix
        )
        assert result.decision == 1.0

    def test_skip_constant_false_off_still_correct(self, queue_model):
        generator, result = run_stcg(
            queue_model, budget_s=10.0, skip_constant_false=False
        )
        assert result.decision == 1.0
        assert generator.stats["const_false_skips"] == 0

    def test_tree_node_cap_respected(self, queue_model):
        generator, result = run_stcg(
            queue_model, budget_s=3.0, max_tree_nodes=16,
            stop_on_full_coverage=False,
        )
        assert result.stats["tree_nodes"] <= 16
        # Execution continues past the cap (steps exceed nodes).
        assert result.stats["steps_executed"] >= result.stats["tree_nodes"]

    def test_trace_recording(self, queue_model):
        generator, _ = run_stcg(queue_model, record_trace=True)
        kinds = {entry.kind for entry in generator.trace}
        assert "solve_ok" in kinds
        assert "exec" in kinds

    def test_trace_off_by_default(self, queue_model):
        generator, _ = run_stcg(queue_model)
        assert generator.trace == []

    def test_trace_records_new_node_ids(self, queue_model):
        """Execution entries report the tree nodes they created."""
        generator, _ = run_stcg(queue_model, record_trace=True)
        exec_entries = [
            e for e in generator.trace if e.kind in ("exec", "random")
        ]
        assert exec_entries
        created = [i for e in exec_entries for i in e.new_node_ids]
        # The tree grew, and every growth step must be attributed.
        assert created
        assert len(generator.tree) == 1 + len(created)  # root pre-exists
        # Ids are unique across entries and actually live in the tree.
        assert len(created) == len(set(created))
        tree_ids = {node.node_id for node in generator.tree}
        assert set(created) <= tree_ids


class TestDeepTracing:
    """The repro.trace/1 layer must observe without perturbing."""

    def test_stats_identical_with_tracer_on_and_off(self):
        from tests.conftest import build_queue_model

        _, plain = run_stcg(build_queue_model(), seed=11)
        _, traced = run_stcg(build_queue_model(), seed=11, trace=True)
        assert plain.stats == traced.stats
        assert [c.inputs for c in plain.suite] == \
            [c.inputs for c in traced.suite]
        assert plain.trace_data == {}
        assert traced.trace_data

    def test_trace_data_shape(self, queue_model):
        _, result = run_stcg(queue_model, trace=True)
        data = result.trace_data
        assert data["schema"] == "repro.trace/1"
        assert "solve_scan" in data["phase_totals"]
        assert "solve" in data["phase_totals"]
        stages = data["solver_stages"]
        finished = sum(int(s["finished"]) for s in stages.values())
        wins = sum(int(s["wins"]) for s in stages.values())
        assert finished == result.stats["solver_calls"]
        assert wins == result.stats["sat"]
        # Tree growth was sampled and reaches the final node count.
        points = data["tree_growth"]
        assert points and int(points[-1][1]) == result.stats["tree_nodes"]

    def test_explicit_tracer_instance(self, queue_model):
        from repro.core import StcgConfig, StcgGenerator
        from repro.obs import PhaseProfiler

        tracer = PhaseProfiler()
        generator = StcgGenerator(
            queue_model, StcgConfig(budget_s=10.0, seed=0), tracer=tracer
        )
        result = generator.run()
        assert generator.tracer is tracer
        names = set(tracer.phase_totals())
        assert {"solve_scan", "solve", "sim_step"} <= names
        # Simulated steps are counted once, by the simulator, and reach
        # the registry; they agree with the generator's own step count.
        steps = result.stats["steps_executed"]
        assert generator.simulator.kernel_stats()["kernel_steps"] == steps
        assert result.metrics["counters"]["kernel.steps"] == steps


class TestObligationTargeting:
    def test_mcdc_obligations_pursued(self, queue_model):
        """Branch coverage alone does not give MCDC; the obligation pass
        must close the gap."""
        generator, result = run_stcg(queue_model, budget_s=15.0)
        assert result.mcdc == 1.0
        assert not generator.collector.unsatisfied_condition_obligations()


class TestResultShape:
    def test_stats_keys(self, counter_model):
        _, result = run_stcg(counter_model)
        for key in (
            "solver_calls", "sat", "unsat", "unknown",
            "const_false_skips", "steps_executed", "tree_nodes",
        ):
            assert key in result.stats

    def test_coverage_at(self, queue_model):
        _, result = run_stcg(queue_model)
        assert result.coverage_at(-1.0) == 0.0
        assert result.coverage_at(1e9) == result.decision

    def test_suite_metadata(self, queue_model):
        _, result = run_stcg(queue_model)
        assert result.suite.model_name == "Queue"
        assert result.suite.input_names == ["op", "key"]
