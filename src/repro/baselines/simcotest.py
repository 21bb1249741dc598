"""SimCoTest-like baseline: random search with coverage feedback.

Reproduces the essential behaviour of SimCoTest (Matinnejad et al., ICSE
2016 companion): piecewise-constant random input signals are simulated
whole-sequence from the initial state; a candidate test is kept when it
increases accumulated coverage.  There is no constraint solving and no
state awareness — fast early coverage, then a plateau once the remaining
branches require specific internal states.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.coverage.collector import CoverageCollector
from repro.core.result import GenerationResult, ORIGIN_TOOL, TimelineEvent
from repro.core.testcase import TestCase, TestSuite
from repro.metrics import MetricsRegistry, populate_registry
from repro.model.graph import CompiledModel
from repro.model.inputs import piecewise_constant_sequence
from repro.model.simulator import Simulator
from repro.obs.tracer import NULL_TRACER, PhaseProfiler, Tracer
from repro.provenance import NULL_LEDGER, ProvenanceLedger


@dataclass
class SimCoTestConfig:
    """Budgets and signal-shape parameters of the random-search baseline."""

    budget_s: float = 10.0
    seed: int = 0
    #: Simulated steps per candidate test (one "simulation").
    sequence_length: int = 20
    #: Max piecewise-constant segments per input signal.
    max_segments: int = 5
    stop_on_full_coverage: bool = True
    #: Deep tracing (``repro.trace/1``): per-candidate simulate phase
    #: totals.  Observation only.
    trace: bool = False
    #: Objective-level coverage provenance (``repro.provenance/1``).
    #: Observation only; note that greedy selection keeps a candidate
    #: only for new *branch* coverage, so obligations covered by a
    #: discarded candidate are attributed with ``case: None``.
    provenance: bool = True


class SimCoTestGenerator:
    """Random test-suite generation with coverage-greedy selection."""

    def __init__(
        self,
        compiled: CompiledModel,
        config: Optional[SimCoTestConfig] = None,
        clock: Callable[[], float] = time.monotonic,
        tracer: Optional[Tracer] = None,
    ):
        self.compiled = compiled
        self.config = config or SimCoTestConfig()
        self._clock = clock
        if tracer is not None:
            self.tracer = tracer
        elif self.config.trace:
            self.tracer = PhaseProfiler()
        else:
            self.tracer = NULL_TRACER
        self._rng = random.Random(self.config.seed)
        self.collector = CoverageCollector(compiled.registry)
        self.ledger = (
            ProvenanceLedger(compiled.registry, "SimCoTest")
            if self.config.provenance else NULL_LEDGER
        )
        self.suite = TestSuite(
            compiled.name, [spec.name for spec in compiled.inports]
        )
        self.timeline: List[TimelineEvent] = []
        self.stats = {"simulations": 0, "steps_executed": 0, "kept": 0}

    def run(self) -> GenerationResult:
        start = self._clock()
        tracer = self.tracer
        ledger = self.ledger
        simulator = Simulator(self.compiled, self.collector, tracer=tracer)
        on_step = on_obligations = None
        if ledger.enabled:
            def on_step(index, new_branch_ids, _found):
                for branch_id in new_branch_ids:
                    ledger.cover_branch(branch_id, index + 1)

            def on_obligations(index, new_obligations):
                for obligation in new_obligations:
                    ledger.cover_obligation(obligation, index + 1)
        while True:
            elapsed = self._clock() - start
            if elapsed >= self.config.budget_s:
                break
            if (
                self.config.stop_on_full_coverage
                and not self.collector.uncovered_branches()
            ):
                break
            sequence = piecewise_constant_sequence(
                self.compiled.inports,
                self._rng,
                self.config.sequence_length,
                self.config.max_segments,
            )
            simulator.reset()
            ledger.begin_case(ORIGIN_TOOL)
            with tracer.span("simulate"):
                outcome = simulator.run_sequence(
                    sequence, on_step=on_step, on_obligations=on_obligations
                )
            new_ids = list(outcome.new_branch_ids)
            self.stats["simulations"] += 1
            self.stats["steps_executed"] += outcome.steps
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
                self.stats["kept"] += 1
                self.timeline.append(
                    TimelineEvent(
                        t=timestamp,
                        decision_coverage=self.collector.decision_coverage(),
                        origin=ORIGIN_TOOL,
                        new_branches=len(new_ids),
                    )
                )
            else:
                # Candidate discarded; any obligations it covered are
                # attributed to no kept case.
                ledger.end_case(None)
        metrics = populate_registry(
            MetricsRegistry(), stats=self.stats,
            kernel=simulator.kernel_stats(),
        )
        return GenerationResult(
            tool="SimCoTest",
            model_name=self.compiled.name,
            summary=self.collector.summary(),
            suite=self.suite,
            timeline=list(self.timeline),
            stats=dict(self.stats),
            trace_data=self._trace_data(),
            provenance=ledger.snapshot(),
            metrics=metrics.snapshot(),
        )

    def _trace_data(self):
        summarize = getattr(self.tracer, "summary", None)
        if summarize is None:
            return {}
        summary = summarize()
        return {
            "schema": "repro.trace/1",
            "phase_totals": summary["phase_totals"],
            "solver_stages": {},
            "tree_growth": [],
            "solver_targets": summary["targets"],
        }


def generate(compiled: CompiledModel, config: Optional[SimCoTestConfig] = None):
    """Convenience wrapper: run the SimCoTest-like baseline."""
    return SimCoTestGenerator(compiled, config).run()
