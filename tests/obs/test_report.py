"""Tests for the ``repro report`` renderer and CLI subcommand."""

import pytest

from repro import api, cli
from repro.metrics import MetricsRegistry, populate_registry
from repro.models.registry import BenchmarkModel
from repro.obs.report import render_report, trace_phase_totals

from tests.conftest import build_counter_model

TINY = BenchmarkModel("Tiny", "counter fixture", build_counter_model, 0, 0)


def _snapshot():
    """One STCG-like cell snapshot: stages, kernel traffic, a fallback."""
    return populate_registry(
        MetricsRegistry(),
        stats={"solver_calls": 4, "sat": 4},
        solver_stages={
            "sample": {"attempts": 4, "finished": 3, "wins": 3,
                       "seconds": 0.15},
            "avm": {"attempts": 1, "finished": 1, "wins": 1,
                    "seconds": 0.05},
        },
        cache={"encoding_hits": 3, "encoding_misses": 1},
        kernel={"specialized_blocks": 42, "fallback_blocks": 1,
                "fallback_classes": ["MovingAccumulator"],
                "kernel_steps": 1234},
    ).snapshot()


def traced_events():
    """A synthetic matrix-style stream carrying every trace event kind."""
    return [
        {"event": "log_opened", "seq": 0, "t": 0.0},
        {"event": "matrix_started", "seq": 1, "t": 0.0, "cells": 1},
        {"event": "cell_started", "seq": 2, "t": 0.0, "cell": 0,
         "model": "M", "tool": "STCG", "repetition": 0},
        {"event": "timeline_point", "seq": 3, "t": 0.1, "cell": 0,
         "decision": 0.5},
        {"event": "timeline_point", "seq": 4, "t": 0.2, "cell": 0,
         "decision": 1.0},
        {"event": "phase_totals", "seq": 5, "t": 0.3, "cell": 0,
         "model": "M", "tool": "STCG", "repetition": 0,
         "phases": {"solve": {"count": 4, "seconds": 0.2},
                    "encode": {"count": 2, "seconds": 0.1}}},
        {"event": "metrics", "seq": 6, "t": 0.3, "cell": 0,
         "model": "M", "tool": "STCG", "repetition": 0,
         "schema": "repro.metrics/1", "snapshot": _snapshot()},
        {"event": "tree_growth", "seq": 7, "t": 0.3, "cell": 0,
         "model": "M", "tool": "STCG", "repetition": 0,
         "points": [[0.0, 1], [0.1, 3], [0.2, 7]]},
        {"event": "span", "seq": 8, "t": 0.3, "cell": 0,
         "model": "M", "tool": "STCG", "repetition": 0,
         "name": "solve", "target": "b1", "calls": 3, "seconds": 0.18},
        {"event": "cell_finished", "seq": 9, "t": 0.3, "cell": 0,
         "model": "M", "tool": "STCG", "repetition": 0, "decision": 1.0},
        {"event": "matrix_finished", "seq": 10, "t": 0.3, "cells": 1,
         "ok": 1, "failed": 0, "wall_s": 0.3},
    ]


class TestRenderReport:
    def test_traced_stream_renders_every_section(self):
        text = render_report(traced_events())
        assert "run report" in text
        assert "cells ok: 1" in text
        assert "phase-time breakdown" in text
        assert "solve" in text and "66.7%" in text  # 0.2 of 0.3 traced
        assert "folded over 1 cell snapshot(s)" in text
        # Metrics render grouped by namespace, with the shared rates.
        assert "solver stages (solver.stage.*)" in text
        assert "avm_win" in text and "100.0%" in text
        assert "cache_hit" in text and "75.0%" in text
        assert "M/STCG rep0" in text
        assert "simulation kernel (kernel.*)" in text
        assert "42" in text and "1234" in text
        assert "kernel.fallback.MovingAccumulator" in text
        assert "warm-start store (store.*): all zero" in text
        assert "7 nodes" in text          # tree growth final value
        assert "100.0% in 0.20s" in text  # coverage curve
        assert "b1" in text and "x3" in text  # slowest targets

    def test_untraced_stream_degrades_gracefully(self):
        events = [e for e in traced_events()
                  if e["event"] not in ("phase_totals", "tree_growth",
                                        "span")]
        text = render_report(events)
        # Every absent kind is named explicitly, never zero-filled.
        assert "no events of kind phase_totals — re-run with --trace" in text
        assert "no events of kind tree_growth" in text
        assert "no events of kind span" in text
        # Metrics are not a trace kind: an untraced stream still has them.
        assert "simulation kernel (kernel.*)" in text
        no_metrics = [e for e in events if e["event"] != "metrics"]
        assert "no events of kind metrics" in render_report(no_metrics)
        # Coverage still renders from plain timeline points.
        assert "100.0% in 0.20s" in text

    def test_trace_missing_kinds_names_absent_kinds(self):
        from repro.obs.report import trace_missing_kinds

        assert trace_missing_kinds(traced_events()) == []
        untraced = [e for e in traced_events()
                    if e["event"] not in ("tree_growth", "span")]
        assert trace_missing_kinds(untraced) == ["span", "tree_growth"]
        assert "phase_totals" in trace_missing_kinds([])

    def test_empty_stream(self):
        text = render_report([])
        assert "events: 0" in text

    def test_failures_listed(self):
        events = traced_events()
        events.insert(-1, {
            "event": "cell_failed", "seq": 99, "t": 0.25, "cell": 1,
            "model": "M", "tool": "SLDV", "repetition": 0,
            "kind": "timeout", "message": "slow",
        })
        text = render_report(events)
        assert "[failed] M/SLDV rep0: timeout: slow" in text

    def test_top_n_limits_targets(self):
        events = traced_events()
        for i in range(5):
            events.append({
                "event": "span", "seq": 100 + i, "t": 0.3, "cell": 0,
                "name": "solve", "target": f"extra{i}", "calls": 1,
                "seconds": 0.01 * (i + 1),
            })
        text = render_report(events, top_n=2)
        # Exactly two target rows: the two slowest survive.
        assert "b1" in text and "extra4" in text
        assert "extra0" not in text

    def test_metrics_section_folds_snapshots(self):
        registry = MetricsRegistry()
        registry.counter("run.solver_calls").inc(4)
        registry.counter("run.sat").inc(0)
        events = [e for e in traced_events() if e["event"] != "metrics"]
        events += [{
            "event": "metrics", "seq": 50 + rep, "t": 0.3, "cell": rep,
            "model": "M", "tool": "STCG", "repetition": rep,
            "snapshot": registry.snapshot(),
        } for rep in (0, 1)]
        text = render_report(events)
        assert "metrics (repro.metrics/1, folded over 2 cell" in text
        assert "run.solver_calls" in text and "8" in text
        assert "1 zero instrument(s) omitted" in text

    def test_stalls_listed_in_summary(self):
        events = traced_events()
        events.insert(-1, {
            "event": "cell_stalled", "seq": 98, "t": 0.25, "cell": 0,
            "model": "M", "tool": "STCG", "repetition": 0,
            "phase": "solve_scan", "quiet_s": 5.0, "threshold_s": 4.0,
            "last_tree_nodes": 9, "last_solver_calls": 3,
            "last_coverage": 0.5,
        })
        text = render_report(events)
        assert "[stalled] M/STCG rep0" in text
        assert "quiet 5.0s" in text

    def test_trace_phase_totals(self):
        totals = trace_phase_totals(traced_events())
        assert totals == {"solve": pytest.approx(0.2),
                          "encode": pytest.approx(0.1)}
        assert trace_phase_totals([]) == {}


class TestReportCli:
    def test_report_on_traced_single_run(self, tmp_path, capsys):
        path = tmp_path / "run.jsonl"
        api.generate(TINY, budget_s=5.0, seed=0,
                     events_out=str(path), trace=True)
        assert cli.main(["report", str(path), "--require-trace"]) == 0
        out = capsys.readouterr().out
        assert "phase-time breakdown" in out
        assert "solver stages (solver.stage.*)" in out
        assert "Tiny/STCG" in out

    def test_require_trace_fails_on_untraced_stream(self, tmp_path, capsys):
        path = tmp_path / "run.jsonl"
        api.generate(TINY, budget_s=5.0, seed=0, events_out=str(path))
        assert cli.main(["report", str(path)]) == 0
        assert cli.main(["report", str(path), "--require-trace"]) == 1
        err = capsys.readouterr().err
        # The error names every absent repro.trace/1 kind.
        assert "missing repro.trace/1 event kind(s)" in err
        assert "phase_totals" in err and "tree_growth" in err
        assert "span" in err

    def test_missing_file_is_an_error(self, tmp_path, capsys):
        assert cli.main(["report", str(tmp_path / "nope.jsonl")]) == 1
        assert "cannot read" in capsys.readouterr().err
