"""Tests for ``repro diff`` (run regression analysis) and ``repro tail``."""

import json

import pytest

from repro import api, cli
from repro.errors import ReproError
from repro.models.registry import BenchmarkModel
from repro.telemetry import MANIFEST_SCHEMA
from repro.telemetry.diff import (
    Thresholds,
    diff_runs,
    find_regressions,
    load_run,
    manifest_rates,
    render_diff,
)
from repro.telemetry.tail import cell_rows, render_tail

from tests.conftest import build_counter_model

TINY = BenchmarkModel("Tiny", "counter fixture", build_counter_model, 0, 0)


def _counters(**overrides):
    counters = {
        "cache.encoding_hits": 80, "cache.encoding_misses": 20,
        "cache.compiled_hits": 0, "cache.compiled_misses": 0,
        "kernel.specialized_blocks": 90, "kernel.fallback_blocks": 10,
        "solverc.objective_compiles": 50, "solverc.compile_fallbacks": 0,
        "run.solver_calls": 12,
    }
    counters.update(overrides)
    return {"counters": counters}


def _manifest(**overrides):
    base = {
        "schema": MANIFEST_SCHEMA,
        "cells": 2, "ok": 2, "failed": 0,
        "coverage": {
            "Tiny": {"STCG": {"decision": 1.0, "condition": 1.0,
                              "mcdc": 1.0, "runs": 2}},
        },
        "phase_seconds": {"solve": 1.0, "execute": 0.5},
        "metrics": _counters(),
        "stalls": [],
    }
    base.update(overrides)
    return base


class TestRates:
    def test_cache_hit_rate(self):
        assert manifest_rates(_manifest())["cache_hit"] == pytest.approx(0.8)
        assert manifest_rates({"metrics": {}})["cache_hit"] is None

    def test_kernel_fallback_rate(self):
        rate = manifest_rates(_manifest())["kernel_fallback"]
        assert rate == pytest.approx(0.1)
        assert manifest_rates({})["kernel_fallback"] is None

    def test_solverc_fallback_rate(self):
        rate = manifest_rates(_manifest())["solverc_fallback"]
        assert rate == pytest.approx(0.0)
        assert manifest_rates({})["solverc_fallback"] is None


class TestDiffRuns:
    def test_self_diff_has_no_regressions(self):
        diff = diff_runs(_manifest(), _manifest())
        assert find_regressions(diff) == []
        assert "no regressions detected" in render_diff(diff, [])

    def test_coverage_drop_is_always_a_regression(self):
        worse = _manifest(coverage={
            "Tiny": {"STCG": {"decision": 0.8, "condition": 1.0,
                              "mcdc": 1.0, "runs": 2}},
        })
        problems = find_regressions(diff_runs(_manifest(), worse))
        assert any("decision" in p and "dropped" in p for p in problems)

    def test_new_failures_are_a_regression(self):
        worse = _manifest(failed=1)
        problems = find_regressions(diff_runs(_manifest(), worse))
        assert any("failed cell(s)" in p for p in problems)

    def test_cache_hit_drop_respects_slack(self):
        worse = _manifest(metrics=_counters(**{
            "cache.encoding_hits": 76, "cache.encoding_misses": 24,
        }))
        diff = diff_runs(_manifest(), worse)
        assert find_regressions(diff) == []  # 4-point dip inside slack
        tight = Thresholds(cache_hit_drop=0.01)
        assert any("cache hit-rate" in p
                   for p in find_regressions(diff, tight))

    def test_fallback_rate_increase_flags(self):
        worse = _manifest(metrics=_counters(**{
            "kernel.specialized_blocks": 50, "kernel.fallback_blocks": 50,
        }))
        problems = find_regressions(diff_runs(_manifest(), worse))
        assert any("kernel fallback" in p for p in problems)

    def test_phase_slowdown_needs_floor_and_ratio(self):
        slower = _manifest(phase_seconds={"solve": 1.8, "execute": 0.5})
        problems = find_regressions(diff_runs(_manifest(), slower))
        assert any("phase 'solve' slowed" in p for p in problems)
        # Tiny absolute growth stays under the floor even at a high ratio.
        tiny = _manifest(phase_seconds={"solve": 1.0, "execute": 0.01})
        fast = _manifest(phase_seconds={"solve": 1.0, "execute": 0.2})
        assert find_regressions(diff_runs(tiny, fast)) == []

    def test_changed_counters_are_listed(self):
        changed = _manifest(metrics=_counters(**{"run.solver_calls": 20}))
        diff = diff_runs(_manifest(), changed)
        assert diff.counters == {"run.solver_calls": (12, 20)}
        assert "run.solver_calls" in render_diff(diff, [])


def _provenance_manifest(objectives):
    """A manifest whose one cell carries a provenance snapshot."""
    return _manifest(provenance={
        "Tiny": {"STCG": {"tool": "STCG", "objectives": objectives,
                          "totals": {"objectives": len(objectives)}}},
    })


_COVERED = {
    "D:is_high:true": {"status": "covered", "case": 0, "step": 1,
                       "origin": "solver"},
    "D:is_high:false": {"status": "covered", "case": 1, "step": 1,
                        "origin": "random"},
}


class TestRegressedObjectives:
    """Empty-set vs absent-section semantics of the objective diff."""

    def test_empty_objectives_map_counts_as_lost(self):
        # A cell that reports provenance with ZERO covered objectives is a
        # real (catastrophic) regression — it must not read like a cell
        # that simply didn't record provenance.
        baseline = _provenance_manifest(_COVERED)
        doctored = _provenance_manifest({})
        diff = diff_runs(baseline, doctored)
        assert diff.objectives == {
            ("Tiny", "STCG"): list(_COVERED),
        }
        problems = find_regressions(diff)
        assert any("lost 2 objective(s)" in p for p in problems)

    def test_objective_missing_from_candidate_map_counts_as_lost(self):
        remaining = {"D:is_high:true": _COVERED["D:is_high:true"]}
        diff = diff_runs(
            _provenance_manifest(_COVERED), _provenance_manifest(remaining)
        )
        assert diff.objectives == {("Tiny", "STCG"): ["D:is_high:false"]}

    def test_absent_provenance_section_is_not_a_regression(self):
        # Provenance off (or a pre-provenance manifest): the section is
        # absent entirely, which must stay silent.
        baseline = _provenance_manifest(_COVERED)
        assert diff_runs(baseline, _manifest()).objectives == {}
        assert diff_runs(
            baseline, _manifest(provenance={"Tiny": {}})
        ).objectives == {}

    def test_uncovered_status_still_counts_as_lost(self):
        flipped = dict(_COVERED)
        flipped["D:is_high:true"] = {"status": "uncovered", "attempts": {},
                                     "skips": {}, "trail": []}
        diff = diff_runs(
            _provenance_manifest(_COVERED), _provenance_manifest(flipped)
        )
        assert diff.objectives == {("Tiny", "STCG"): ["D:is_high:true"]}


class TestLoadRun:
    def test_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text(json.dumps({"schema": "something/else"}))
        with pytest.raises(ReproError, match="schema"):
            load_run(str(path))

    def test_rejects_a_version_1_manifest_by_name(self, tmp_path):
        path = tmp_path / "old.manifest.json"
        path.write_text(json.dumps({
            "schema": "repro.run-manifest/1", "cells": 1, "ok": 1,
            "failed": 0, "stat_totals": {"solver_calls": 3},
            "coverage": {},
        }))
        with pytest.raises(ReproError) as caught:
            load_run(str(path))
        message = str(caught.value)
        assert "repro.run-manifest/1" in message
        assert MANIFEST_SCHEMA in message
        assert "re-run the producer" in message
        # Every loader-backed command refuses it the same way.
        for command in (["diff", str(path), str(path)],
                        ["dashboard", str(path), "--out",
                         str(tmp_path / "d.html")],
                        ["explain", str(path)]):
            assert cli.main(command) == 1

    def test_rejects_missing_file(self, tmp_path):
        with pytest.raises(ReproError, match="cannot read"):
            load_run(str(tmp_path / "nope.json"))

    def test_jsonl_and_manifest_agree(self, tmp_path):
        """A diff of the event log against its own manifest is empty."""
        events = str(tmp_path / "run.jsonl")
        api.run_experiment(
            models=[TINY], tools=("STCG",), budget_s=2.0, repetitions=1,
            seed=0, events_out=events, trace=True,
        )
        manifest = events.replace(".jsonl", ".manifest.json")
        diff = diff_runs(load_run(events), load_run(manifest))
        assert find_regressions(diff) == []
        assert diff.counters == {}


class TestDiffCli:
    def _run(self, tmp_path):
        events = str(tmp_path / "run.jsonl")
        api.run_experiment(
            models=[TINY], tools=("STCG",), budget_s=2.0, repetitions=1,
            seed=0, events_out=events, trace=True,
        )
        return events.replace(".jsonl", ".manifest.json")

    def test_self_diff_exits_zero(self, tmp_path, capsys):
        manifest = self._run(tmp_path)
        code = cli.main(["diff", manifest, manifest, "--fail-on-regression"])
        assert code == 0
        assert "no regressions detected" in capsys.readouterr().out

    def test_doctored_copy_fails_the_gate(self, tmp_path, capsys):
        manifest = self._run(tmp_path)
        doctored = str(tmp_path / "doctored.manifest.json")
        document = json.loads(open(manifest).read())
        for per_tool in document["coverage"].values():
            for agg in per_tool.values():
                agg["decision"] = 0.0
        document["failed"] = document.get("failed", 0) + 1
        with open(doctored, "w") as handle:
            json.dump(document, handle)
        assert cli.main(["diff", manifest, doctored]) == 0  # report only
        code = cli.main(["diff", manifest, doctored, "--fail-on-regression"])
        assert code == 1
        captured = capsys.readouterr()
        assert "[regression]" in captured.out
        assert "regression(s)" in captured.err


def _events(*extra):
    base = [
        {"event": "matrix_started", "seq": 0, "t": 0.0,
         "models": ["Tiny"], "tools": ["STCG"], "budget_s": 2.0,
         "repetitions": 2, "workers": 2},
        {"event": "cell_started", "seq": 1, "t": 0.0, "cell": 0,
         "model": "Tiny", "tool": "STCG", "repetition": 0},
        {"event": "cell_started", "seq": 2, "t": 0.0, "cell": 1,
         "model": "Tiny", "tool": "STCG", "repetition": 1},
    ]
    base.extend(extra)
    return base


def _beat(cell, phase="solve_scan", **extra):
    beat = {
        "schema": "repro.heartbeat/1", "pid": 1, "n": 0, "cell": cell,
        "model": "Tiny", "tool": "STCG", "repetition": cell,
        "phase": phase, "tree_nodes": 5, "solver_calls": 3,
        "coverage": 0.5, "rss_kb": 1000,
    }
    beat.update(extra)
    return beat


class TestTail:
    def test_statuses(self):
        events = _events(
            {"event": "cell_finished", "seq": 3, "t": 1.0, "cell": 0,
             "model": "Tiny", "tool": "STCG", "repetition": 0,
             "decision": 1.0},
        )
        rows = cell_rows(events, [_beat(1)])
        assert [r["status"] for r in rows] == ["ok", "running"]
        assert rows[0]["coverage"] == 1.0
        assert rows[1]["phase"] == "solve_scan"
        assert rows[1]["rss_kb"] == 1000

    def test_stall_flag_outranks_running(self):
        events = _events(
            {"event": "cell_stalled", "seq": 3, "t": 5.0, "cell": 1,
             "model": "Tiny", "tool": "STCG", "repetition": 1,
             "phase": "solve_scan", "quiet_s": 4.0},
        )
        rows = cell_rows(events, [_beat(1)])
        assert rows[1]["status"] == "stalled"
        # ...but a terminal event wins over a stale stall flag.
        events.append({"event": "cell_failed", "seq": 4, "t": 6.0,
                       "cell": 1, "model": "Tiny", "tool": "STCG",
                       "repetition": 1, "kind": "timeout", "message": "x"})
        rows = cell_rows(events, [_beat(1)])
        assert rows[1]["status"] == "failed"

    def test_queued_without_beats(self):
        rows = cell_rows(_events(), [])
        assert [r["status"] for r in rows] == ["queued", "queued"]

    def test_render_tail_board(self):
        events = _events(
            {"event": "cell_finished", "seq": 3, "t": 1.0, "cell": 0,
             "model": "Tiny", "tool": "STCG", "repetition": 0,
             "decision": 1.0},
            {"event": "cell_stalled", "seq": 4, "t": 5.0, "cell": 1,
             "model": "Tiny", "tool": "STCG", "repetition": 1,
             "phase": "solve_scan", "quiet_s": 4.0},
        )
        text = render_tail(events, [_beat(1)])
        assert "live: 1/2 cells done, 1 stall flag(s)" in text
        assert "stalled" in text and "ok" in text
        assert "50.0%" in text  # live coverage from the beat

    def test_cli_tail_end_to_end(self, tmp_path, capsys):
        events = str(tmp_path / "run.jsonl")
        api.run_experiment(
            models=[TINY], tools=("STCG",), budget_s=2.0, repetitions=2,
            seed=0, events_out=events, heartbeat_s=0.05,
        )
        assert cli.main(["tail", events]) == 0
        out = capsys.readouterr().out
        assert "finished: 2/2 cells done" in out
        assert "Tiny" in out and "ok" in out
