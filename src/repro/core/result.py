"""Common result types for all three test-case generators.

STCG and both baselines return a :class:`GenerationResult`, so the harness
compares them uniformly (Table III) and plots their timelines (Figure 4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.coverage.collector import CoverageSummary
from repro.core.testcase import TestSuite

#: Timeline event origins (the paper's Figure 4 markers).
ORIGIN_SOLVER = "solver"  # "△" — state-aware constraint solving
ORIGIN_RANDOM = "random"  # "◇" — random input-sequence execution
ORIGIN_TOOL = "tool"  # baseline tools (unmarked lines)
ORIGIN_FUZZ = "fuzz"  # coverage-guided mutational fuzzing (repro.fuzz)


@dataclass
class TimelineEvent:
    """One emitted test case: when, what coverage it reached, and how."""

    t: float
    decision_coverage: float
    origin: str
    new_branches: int = 0


@dataclass
class GenerationResult:
    """Everything one generation run produced."""

    tool: str
    model_name: str
    summary: CoverageSummary
    suite: TestSuite
    timeline: List[TimelineEvent] = field(default_factory=list)
    stats: Dict[str, object] = field(default_factory=dict)
    #: Deep-tracing aggregates (``repro.trace/1``): phase totals, solver
    #: stage metrics, tree growth, slowest solver targets.  Empty unless
    #: the run was traced; kept separate from ``stats`` so tracing cannot
    #: perturb the comparison numbers.
    trace_data: Dict[str, object] = field(default_factory=dict)
    #: The run's ``repro.metrics/1`` registry snapshot, filled by every
    #: tool at run end, traced or not (see :mod:`repro.metrics`).
    metrics: Dict[str, object] = field(default_factory=dict)
    #: Objective-level coverage provenance (``repro.provenance/1``):
    #: which (case, step, origin) first covered each objective, and the
    #: solver-attempt audit chain for each uncovered one.  Empty when the
    #: generator's ``provenance`` knob is off; observation only, like
    #: ``trace_data``.
    provenance: Dict[str, object] = field(default_factory=dict)

    @property
    def decision(self) -> float:
        return self.summary.decision

    @property
    def condition(self) -> float:
        return self.summary.condition

    @property
    def mcdc(self) -> float:
        return self.summary.mcdc

    def coverage_at(self, t: float) -> float:
        """Decision coverage reached by time ``t`` (step function)."""
        best = 0.0
        for event in self.timeline:
            if event.t <= t:
                best = max(best, event.decision_coverage)
        return best

    def __repr__(self) -> str:
        return (
            f"GenerationResult({self.tool} on {self.model_name}: "
            f"D={self.decision:.0%} C={self.condition:.0%} M={self.mcdc:.0%}, "
            f"{len(self.suite)} cases)"
        )
