"""SLDV-like baseline: bounded symbolic unrolling from the initial state.

Reproduces the essential behaviour of Simulink Design Verifier's test
generation: the whole model is encoded symbolically over ``k`` unrolled
iterations *including all internal state*, and each uncovered branch is
solved against that monolithic encoding.  No dynamic state feedback is
used.  Because chart locations, delays, and data-store arrays are symbolic
across steps, constraint size grows quickly with depth — which is exactly
why the paper finds SLDV emitting test cases in a few early bursts and then
stalling on state-heavy models.

The unrolling is incremental and composed from the model's step template
(:meth:`~repro.model.graph.CompiledModel.step_template`, the one symbolic
step): depth ``k+1`` substitutes the symbolic state reached at depth ``k``
and fresh step-suffixed inport variables into the template.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.coverage.collector import CoverageCollector
from repro.coverage.registry import Branch
from repro.core.result import GenerationResult, ORIGIN_TOOL, TimelineEvent
from repro.core.testcase import TestCase, TestSuite
from repro.expr import ops as x
from repro.expr.ast import Const, Expr, Var
from repro.expr.variables import substitute
from repro.metrics import MetricsRegistry, populate_registry
from repro.model.graph import CompiledModel
from repro.model.simulator import Simulator
from repro.obs.stages import merge_stage_dicts
from repro.obs.tracer import NULL_TRACER, PhaseProfiler, Tracer
from repro.provenance import NULL_LEDGER, ProvenanceLedger
from repro.solver.engine import SolverConfig, SolverEngine, Status
from repro.solverc.compiler import ConstraintCompiler, SolvercStats


@dataclass
class SldvConfig:
    """Budgets of the bounded-unrolling baseline."""

    budget_s: float = 10.0
    seed: int = 0
    #: Maximum unroll depth.
    max_depth: int = 8
    #: Per-branch solver budgets (larger than STCG's because the encodings
    #: are much bigger).
    solver: SolverConfig = field(default_factory=lambda: SolverConfig(
        max_samples=96, avm_evaluations=3000, time_budget_s=1.0
    ))
    stop_on_full_coverage: bool = True
    #: Deep tracing (``repro.trace/1``): phase totals (unroll / solve /
    #: replay), solver-stage metrics.  Observation only.
    trace: bool = False
    #: Objective-level coverage provenance (``repro.provenance/1``).
    #: Attempt nodes are unroll depths; SLDV never solves condition/MCDC
    #: obligations directly, so those only gain provenance when a replay
    #: happens to cover them.  Observation only.
    provenance: bool = True


class _IncrementalUnroll:
    """Step-by-step symbolic unrolling: the step template composed with
    itself, the symbolic state threaded from one step to the next."""

    def __init__(self, compiled: CompiledModel):
        self.compiled = compiled
        self.variables: List[Var] = []
        self.step_conditions: List[Dict[int, List[Expr]]] = []
        #: state path -> its symbolic value at the start of the next step.
        self._state: Dict[str, Expr] = {
            path: x.lift(value)
            for path, value in compiled.initial_state().items()
        }

    @property
    def depth(self) -> int:
        return len(self.step_conditions)

    def extend(self) -> None:
        """Unroll one more step: bind the template's state variables to the
        state reached so far and its inports to this step's variables."""
        template = self.compiled.step_template()
        step_vars = self.compiled.input_variables(suffix=f"@{self.depth}")
        self.variables.extend(step_vars)
        bindings: Dict[str, Expr] = dict(self._state)
        for spec, var in zip(self.compiled.inports, step_vars):
            bindings[spec.name] = var
        memo: Dict[int, Expr] = {}
        self.step_conditions.append({
            decision_id: [
                substitute(condition, bindings, memo)
                for condition in conditions
            ]
            for decision_id, conditions in template.outcome_conditions.items()
        })
        self._state = {
            path: substitute(value, bindings, memo)
            for path, value in template.next_state.items()
        }

    def path_constraint(self, branch: Branch, step: int) -> Expr:
        conditions = self.step_conditions[step][branch.decision.decision_id]
        constraint = conditions[branch.outcome]
        for ancestor in branch.ancestors():
            ancestor_conditions = self.step_conditions[step][
                ancestor.decision.decision_id
            ]
            constraint = x.land(constraint, ancestor_conditions[ancestor.outcome])
        return constraint

    def decode_sequence(self, model: Dict[str, object], upto: int):
        sequence = []
        for step in range(upto + 1):
            sequence.append(
                {
                    spec.name: model[f"{spec.name}@{step}"]
                    for spec in self.compiled.inports
                }
            )
        return sequence


class SldvGenerator:
    """Bounded-model-checking style test generation."""

    def __init__(
        self,
        compiled: CompiledModel,
        config: Optional[SldvConfig] = None,
        clock: Callable[[], float] = time.monotonic,
        tracer: Optional[Tracer] = None,
    ):
        self.compiled = compiled
        self.config = config or SldvConfig()
        self._clock = clock
        if tracer is not None:
            self.tracer = tracer
        elif self.config.trace:
            self.tracer = PhaseProfiler()
        else:
            self.tracer = NULL_TRACER
        self._rng = random.Random(self.config.seed)
        self._engine = SolverEngine(self.config.solver)
        self._compiler = ConstraintCompiler()
        self.collector = CoverageCollector(compiled.registry)
        self.ledger = (
            ProvenanceLedger(compiled.registry, "SLDV")
            if self.config.provenance else NULL_LEDGER
        )
        self.suite = TestSuite(
            compiled.name, [spec.name for spec in compiled.inports]
        )
        self.timeline: List[TimelineEvent] = []
        self.stats = {
            "solver_calls": 0,
            "sat": 0,
            "unsat": 0,
            "unknown": 0,
            "steps_executed": 0,
            "depth_reached": 0,
        }

    def run(self) -> GenerationResult:
        start = self._clock()
        tracer = self.tracer
        ledger = self.ledger
        simulator = Simulator(self.compiled, self.collector, tracer=tracer)
        unroll = _IncrementalUnroll(self.compiled)
        on_step = on_obligations = None
        if ledger.enabled:
            def on_step(index, new_branch_ids, _found):
                for branch_id in new_branch_ids:
                    ledger.cover_branch(branch_id, index + 1)

            def on_obligations(index, new_obligations):
                for obligation in new_obligations:
                    ledger.cover_obligation(obligation, index + 1)

        def out_of_time() -> bool:
            return self._clock() - start >= self.config.budget_s

        while unroll.depth < self.config.max_depth and not out_of_time():
            with tracer.span("unroll"):
                unroll.extend()
            self.stats["depth_reached"] = unroll.depth
            step = unroll.depth - 1
            for branch in self.compiled.registry.branches_by_depth():
                if out_of_time():
                    break
                if self.collector.is_branch_covered(branch):
                    continue
                objective = (
                    ledger.branch_objective(branch) if ledger.enabled else None
                )
                constraint = unroll.path_constraint(branch, step)
                if isinstance(constraint, Const) and constraint.value is False:
                    if ledger.enabled:
                        ledger.skip(objective, "const_false")
                    continue
                self.stats["solver_calls"] += 1
                with tracer.span("solve", target=branch.label):
                    bundle = self._compiler.compile(constraint)
                    result = self._engine.solve(
                        constraint, unroll.variables, self._rng,
                        compiled=bundle,
                    )
                self.stats[result.status.value] += 1
                if ledger.enabled:
                    # The "node" of a bounded-unrolling attempt is the
                    # unroll depth the branch was solved at.
                    ledger.attempt(
                        objective,
                        step,
                        result.status.value,
                        result.stats.stage,
                        "full",
                        False,
                    )
                if result.status is not Status.SAT:
                    continue
                assert result.model is not None
                sequence = unroll.decode_sequence(result.model, step)
                simulator.reset()
                ledger.begin_case(ORIGIN_TOOL)
                with tracer.span("replay"):
                    outcome = simulator.run_sequence(
                        sequence, on_step=on_step, on_obligations=on_obligations
                    )
                self.stats["steps_executed"] += outcome.steps
                new_ids = list(outcome.new_branch_ids)
                if new_ids:
                    timestamp = self._clock() - start
                    self.suite.add(
                        TestCase(
                            inputs=sequence,
                            origin=ORIGIN_TOOL,
                            new_branch_ids=new_ids,
                            timestamp=timestamp,
                        )
                    )
                    ledger.end_case(len(self.suite) - 1)
                    self.timeline.append(
                        TimelineEvent(
                            t=timestamp,
                            decision_coverage=self.collector.decision_coverage(),
                            origin=ORIGIN_TOOL,
                            new_branches=len(new_ids),
                        )
                    )
                else:
                    ledger.end_case(None)
            if self.config.stop_on_full_coverage and not self.collector.uncovered_branches():
                break
        stages = merge_stage_dicts({}, self._engine.metrics.as_dict())
        solverc = {
            "enabled": True,
            **SolvercStats()
            .merge(self._engine.solverc)
            .merge(self._compiler.stats)
            .as_dict(),
        }
        metrics = populate_registry(
            MetricsRegistry(),
            stats=self.stats,
            solver_stages=stages,
            kernel=simulator.kernel_stats(),
            solverc=solverc,
        )
        return GenerationResult(
            tool="SLDV",
            model_name=self.compiled.name,
            summary=self.collector.summary(),
            suite=self.suite,
            timeline=list(self.timeline),
            stats=dict(self.stats),
            trace_data=self._trace_data(stages, solverc),
            provenance=ledger.snapshot(),
            metrics=metrics.snapshot(),
        )

    def _trace_data(self, stages, solverc):
        summarize = getattr(self.tracer, "summary", None)
        if summarize is None:
            return {}
        summary = summarize()
        return {
            "schema": "repro.trace/1",
            "phase_totals": summary["phase_totals"],
            "solver_stages": stages,
            "tree_growth": [],
            "solver_targets": summary["targets"],
            "solverc": solverc,
        }


def generate(compiled: CompiledModel, config: Optional[SldvConfig] = None):
    """Convenience wrapper: run the SLDV-like baseline."""
    return SldvGenerator(compiled, config).run()
