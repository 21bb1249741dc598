"""Structured run telemetry: JSONL event streams and run manifests."""

from repro.telemetry.dashboard import render_dashboard
from repro.telemetry.diff import (
    RunDiff,
    Thresholds,
    diff_runs,
    find_regressions,
    load_run,
    render_diff,
)
from repro.telemetry.events import (
    EVENT_SCHEMA,
    EventLog,
    MANIFEST_SCHEMA,
    TRACE_KINDS,
    TRACE_SCHEMA,
    build_manifest,
    emit_result,
    read_events,
)
from repro.telemetry.explain import load_provenance, render_explain
from repro.telemetry.tail import cell_rows, render_tail

__all__ = [
    "EVENT_SCHEMA",
    "EventLog",
    "MANIFEST_SCHEMA",
    "RunDiff",
    "TRACE_KINDS",
    "TRACE_SCHEMA",
    "Thresholds",
    "build_manifest",
    "cell_rows",
    "diff_runs",
    "emit_result",
    "find_regressions",
    "load_provenance",
    "load_run",
    "read_events",
    "render_dashboard",
    "render_diff",
    "render_explain",
    "render_tail",
]
