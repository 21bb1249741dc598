"""Observability: low-overhead tracing, phase profiling, solver-stage metrics.

The generator loop is instrumented against the :class:`Tracer` protocol.
The default :data:`NULL_TRACER` makes every hook a no-op (sub-microsecond,
so tracing costs nothing when disabled); :class:`PhaseProfiler` aggregates
spans into bounded per-phase totals suitable for long runs.

Aggregates flow into the telemetry event stream as ``repro.trace/1`` event
kinds (``span``, ``phase_totals``, ``tree_growth``) and are rendered by
:func:`render_report` (the ``repro report`` subcommand); counters travel
separately, in every run's ``repro.metrics/1`` snapshot.
"""

from repro.obs.tracer import (
    NULL_TRACER,
    NullTracer,
    PhaseProfiler,
    Tracer,
)
from repro.obs.stages import (
    SOLVER_STAGES,
    SolverStageMetrics,
    canonical_stage,
    merge_stage_dicts,
)
from repro.obs.report import render_report, trace_phase_totals

__all__ = [
    "NULL_TRACER",
    "NullTracer",
    "PhaseProfiler",
    "SOLVER_STAGES",
    "SolverStageMetrics",
    "Tracer",
    "canonical_stage",
    "merge_stage_dicts",
    "render_report",
    "trace_phase_totals",
]
