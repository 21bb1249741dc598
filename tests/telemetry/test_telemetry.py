"""Tests for the structured telemetry layer: events, JSONL, manifest."""

import json

import pytest

from repro.errors import ReproError
from repro.exec import execute_matrix
from repro.metrics import (
    METRICS_SCHEMA,
    MetricsRegistry,
    declare_instruments,
    populate_registry,
)
from repro.models.registry import BenchmarkModel
from repro.telemetry import (
    EVENT_SCHEMA,
    EventLog,
    MANIFEST_SCHEMA,
    TRACE_KINDS,
    TRACE_SCHEMA,
    build_manifest,
    load_run,
    read_events,
)

from tests.conftest import build_counter_model, build_crashy_model

TINY = BenchmarkModel("Tiny", "counter fixture", build_counter_model, 0, 0)
CRASHY = BenchmarkModel("Crashy", "crash injection", build_crashy_model, 0, 0)


class TestEventLog:
    def test_in_memory_emission(self):
        log = EventLog()
        log.emit("run_started", model="M", tool="STCG")
        log.emit("run_finished", model="M", tool="STCG", decision=0.5)
        assert [e["event"] for e in log.events] == ["run_started", "run_finished"]
        assert [e["seq"] for e in log.events] == [0, 1]
        assert log.of_kind("run_finished")[0]["decision"] == 0.5

    def test_jsonl_stream_round_trip(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with EventLog(str(path)) as log:
            log.emit("cell_started", cell=0, model="M", tool="STCG")
            log.emit("cell_failed", cell=0, model="M", tool="STCG",
                     kind="crash", message="boom")
        events = read_events(str(path))
        assert events[0]["event"] == "log_opened"
        assert events[0]["schema"] == EVENT_SCHEMA
        assert events[-1]["kind"] == "crash"
        # Every line was valid JSON with monotonically increasing seq.
        assert [e["seq"] for e in events] == list(range(len(events)))

    def test_odd_payload_values_are_coerced(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with EventLog(str(path)) as log:
            log.emit("stats", branches={3, 1, 2}, pair=(1, 2))
        event = read_events(str(path))[-1]
        assert event["branches"] == [1, 2, 3]
        assert event["pair"] == [1, 2]

    def test_malformed_line_raises(self, tmp_path):
        path = tmp_path / "broken.jsonl"
        path.write_text('{"event": "ok", "seq": 0}\nnot json\n')
        with pytest.raises(ReproError, match="malformed"):
            read_events(str(path))

    def test_manifest_aggregates_cells(self):
        log = EventLog()
        log.emit("matrix_started", models=["M"], tools=["STCG"], cells=3)
        for rep, decision in enumerate((0.4, 0.8)):
            stats = {"solver_calls": 10, "sat": 4}
            log.emit("cell_finished", model="M", tool="STCG",
                     repetition=rep, decision=decision, condition=0.5,
                     mcdc=0.25, duration_s=1.0, stats=stats)
            snapshot = populate_registry(MetricsRegistry(), stats=stats)
            log.emit("metrics", model="M", tool="STCG", repetition=rep,
                     schema=METRICS_SCHEMA, snapshot=snapshot.snapshot())
        log.emit("cell_failed", model="M", tool="STCG", repetition=2,
                 seed=1, kind="timeout", message="slow", duration_s=2.0)
        log.emit("matrix_finished", cells=3, ok=2, failed=1, wall_s=4.0)
        manifest = log.manifest()
        assert manifest["schema"] == MANIFEST_SCHEMA
        assert manifest["cells"] == 3
        assert manifest["ok"] == 2 and manifest["failed"] == 1
        agg = manifest["coverage"]["M"]["STCG"]
        assert agg["decision"] == pytest.approx(0.6)
        assert agg["runs"] == 2
        # The folded metrics are the only counter aggregate, and they are
        # schema-stable: every declared counter appears even when zero.
        counters = manifest["metrics"]["counters"]
        declared = declare_instruments(MetricsRegistry()).snapshot()
        assert set(counters) == set(declared["counters"])
        assert counters["run.cells"] == 2
        assert counters["run.solver_calls"] == 20
        assert counters["run.sat"] == 8
        assert counters["run.unsat"] == 0
        assert counters["run.simulations"] == 0
        assert manifest["wall_s"] == 4.0
        assert manifest["failures"][0]["kind"] == "timeout"
        assert manifest["config"]["cells"] == 3

    def test_manifest_aggregates_trace_events(self):
        log = EventLog()
        log.emit("matrix_started", models=["M"], tools=["STCG"], cells=1)
        for cell in (0, 1):
            log.emit("phase_totals", cell=cell, model="M", tool="STCG",
                     repetition=cell,
                     phases={"solve": {"count": 2, "seconds": 0.5}})
            snapshot = populate_registry(
                MetricsRegistry(), stats={},
                solver_stages={"avm": {"attempts": 1, "finished": 1,
                                       "wins": 1, "seconds": 0.25}},
            ).snapshot()
            log.emit("metrics", cell=cell, model="M", tool="STCG",
                     repetition=cell, schema=METRICS_SCHEMA,
                     snapshot=snapshot)
        manifest = log.manifest()
        assert manifest["phase_seconds"] == {"solve": 1.0}
        metrics = manifest["metrics"]
        assert metrics["counters"]["solver.stage.avm.wins"] == 2
        assert metrics["gauges"]["solver.stage.avm.seconds"]["value"] == 0.5

    def test_untraced_manifest_has_empty_trace_aggregates(self):
        log = EventLog()
        log.emit("matrix_started", models=["M"], tools=["STCG"], cells=0)
        manifest = log.manifest()
        assert manifest["phase_seconds"] == {}
        assert manifest["metrics"] == {}


class TestExecutorTelemetry:
    def test_matrix_event_stream(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with EventLog(str(path)) as log:
            execute_matrix(
                [TINY, CRASHY], ("STCG",),
                budget_s=2.0, repetitions=1, workers=1, events=log,
            )
        events = read_events(str(path))
        kinds = [e["event"] for e in events]
        assert kinds[1] == "matrix_started"
        assert kinds[-1] == "matrix_finished"
        assert kinds.count("cell_started") == 2
        assert kinds.count("cell_finished") == 1
        assert kinds.count("cell_failed") == 1
        # STCG on the counter model emits at least one timeline point.
        assert kinds.count("timeline_point") >= 1
        finished = next(e for e in events if e["event"] == "cell_finished")
        assert finished["model"] == "Tiny"
        assert 0.0 <= finished["decision"] <= 1.0
        assert finished["stats"]["solver_calls"] >= 0
        failed = next(e for e in events if e["event"] == "cell_failed")
        assert failed["model"] == "Crashy" and failed["kind"] == "crash"

    def test_manifest_matches_execution(self):
        log = EventLog()
        result = execute_matrix(
            [TINY], ("STCG", "SimCoTest"),
            budget_s=2.0, repetitions=1, workers=1, events=log,
        )
        manifest = result.manifest
        assert manifest["cells"] == 2
        assert manifest["ok"] == 2
        for tool in ("STCG", "SimCoTest"):
            assert manifest["coverage"]["Tiny"][tool]["decision"] == \
                result.outcomes["Tiny"][tool].decision

    def test_traced_matrix_emits_trace_events_per_cell(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with EventLog(str(path)) as log:
            execute_matrix(
                [TINY], ("STCG", "SimCoTest"),
                budget_s=2.0, repetitions=1, workers=1, events=log,
                trace=True,
            )
        events = read_events(str(path))
        assert next(
            e for e in events if e["event"] == "matrix_started"
        )["trace"] is True
        phase_events = [e for e in events if e["event"] == "phase_totals"]
        # One per cell, tagged with the trace schema and the cell identity.
        assert {e["tool"] for e in phase_events} == {"STCG", "SimCoTest"}
        for event in phase_events:
            assert event["schema"] == TRACE_SCHEMA
            assert event["phases"]
            assert "cell" in event and "seed" in event
        # STCG cells additionally report tree growth.
        growth = [e for e in events if e["event"] == "tree_growth"]
        assert growth and growth[0]["tool"] == "STCG"
        assert growth[0]["points"]
        # Solver stages and the simulation-kernel specialization counts
        # travel in the cell's one metrics snapshot.
        (stcg,) = [e for e in events if e["event"] == "metrics"
                   and e["tool"] == "STCG"]
        assert stcg["schema"] == METRICS_SCHEMA
        counters = stcg["snapshot"]["counters"]
        assert sum(v for k, v in counters.items()
                   if k.startswith("solver.stage.")
                   and k.endswith(".finished")) > 0
        assert stcg["snapshot"]["gauges"]["kernel.enabled"]["value"] == 1.0
        assert counters["kernel.specialized_blocks"] > 0
        assert counters["kernel.steps"] > 0

    def test_untraced_matrix_has_no_trace_events(self):
        log = EventLog()
        execute_matrix(
            [TINY], ("STCG",), budget_s=2.0, repetitions=1, workers=1,
            events=log,
        )
        kinds = [e["event"] for e in log.events]
        assert not (set(kinds) & set(TRACE_KINDS))
        # Counters are not a trace concern: the metrics event is always on.
        assert kinds.count("metrics") == 1

    def test_matrix_without_a_sink_builds_the_same_manifest(self, tmp_path):
        result = execute_matrix(
            [TINY], ("STCG", "SimCoTest"),
            budget_s=2.0, repetitions=1, workers=1,
        )
        manifest = result.manifest
        assert manifest["schema"] == MANIFEST_SCHEMA
        assert manifest["metrics"]["counters"]["run.cells"] == 2
        path = tmp_path / "run.manifest.json"
        path.write_text(json.dumps(manifest))
        assert load_run(str(path)) == manifest
        for tool in ("STCG", "SimCoTest"):
            outcome = result.outcomes["Tiny"][tool]
            agg = manifest["coverage"]["Tiny"][tool]
            assert agg["decision"] == outcome.decision
            assert agg["condition"] == outcome.condition
            assert agg["mcdc"] == outcome.mcdc


class TestManifestRoundTrip:
    def test_disk_round_trip_matches_in_memory(self, tmp_path):
        """EventLog → disk → read_events → manifest is loss-free."""
        path = tmp_path / "run.jsonl"
        with EventLog(str(path)) as log:
            execute_matrix(
                [TINY, CRASHY], ("STCG", "SimCoTest"),
                budget_s=2.0, repetitions=1, workers=1, events=log,
                trace=True,
            )
            in_memory = log.manifest()
        from_disk = build_manifest(read_events(str(path)))
        assert from_disk == in_memory
        assert from_disk["phase_seconds"]
        assert from_disk["metrics"]["counters"]["run.solver_calls"] > 0

    def test_write_manifest_equals_build_manifest(self, tmp_path):
        events_path = tmp_path / "run.jsonl"
        manifest_path = tmp_path / "run.manifest.json"
        with EventLog(str(events_path)) as log:
            execute_matrix(
                [TINY], ("STCG",), budget_s=2.0, repetitions=1, workers=1,
                events=log, trace=True,
            )
            log.write_manifest(str(manifest_path))
        written = json.loads(manifest_path.read_text())
        assert written == build_manifest(read_events(str(events_path)))


def _interleaved_cell_events():
    """A synthetic traced 2-model x 2-rep stream with per-cell events."""
    events = [
        {"event": "log_opened", "seq": 0, "t": 0.0, "schema": EVENT_SCHEMA},
        {"event": "matrix_started", "seq": 1, "t": 0.0, "models": ["A", "B"],
         "tools": ["STCG"], "budget_s": 1.0, "repetitions": 2, "workers": 4},
    ]
    seq = 2
    for index, (model, rep) in enumerate(
        [("A", 0), ("A", 1), ("B", 0), ("B", 1)]
    ):
        identity = {"cell": index, "model": model, "tool": "STCG",
                    "repetition": rep}
        registry = MetricsRegistry()
        registry.counter("run.solver_calls").inc(index + 1)
        registry.histogram("stcg.case_length", (2.0, 4.0)).observe(
            float(index + 1)
        )
        events += [
            {"event": "cell_started", "seq": seq, "t": 0.0, **identity},
            {"event": "cell_finished", "seq": seq + 1, "t": 0.1, **identity,
             "duration_s": 0.1 * (index + 1), "decision": 0.25 * (index + 1),
             "condition": 0.5, "mcdc": 0.5, "cases": 2,
             "stats": {"solver_calls": index + 1, "sat": index}},
            {"event": "phase_totals", "seq": seq + 2, "t": 0.1, **identity,
             "schema": TRACE_SCHEMA,
             "phases": {"solve": {"count": 1, "seconds": 0.1 * (index + 1)},
                        "execute": {"count": 1, "seconds": 0.07}}},
            {"event": "metrics", "seq": seq + 3, "t": 0.1, **identity,
             "schema": METRICS_SCHEMA, "snapshot": registry.snapshot()},
        ]
        seq += 4
    events.append({"event": "matrix_finished", "seq": seq, "t": 0.5,
                   "cells": 4, "ok": 4, "failed": 0, "wall_s": 0.5})
    return events


class TestManifestOrderIndependence:
    """Satellite of the observability PR: multi-worker interleavings of the
    same per-cell events must fold to the bit-identical manifest."""

    def test_any_permutation_of_cell_events_is_identical(self):
        import random

        events = _interleaved_cell_events()
        reference = build_manifest(events)
        # Only per-cell events interleave under workers=N; the lifecycle
        # frame (log_opened/matrix_*) is always emitted by the parent.
        head, cell_events, tail = events[:2], events[2:-1], events[-1:]
        rng = random.Random(7)
        for _ in range(10):
            shuffled = list(cell_events)
            rng.shuffle(shuffled)
            assert build_manifest(head + shuffled + tail) == reference

    def test_reversed_stream_matches_forward_stream(self):
        events = _interleaved_cell_events()
        reference = build_manifest(events)
        reversed_cells = events[:2] + list(reversed(events[2:-1])) + events[-1:]
        assert build_manifest(reversed_cells) == reference

    def test_duplicate_kind_events_aggregate_not_overwrite(self):
        """Two phase_totals events for one cell sum, in either order."""
        events = _interleaved_cell_events()
        extra = {"event": "phase_totals", "seq": 99, "t": 0.2, "cell": 0,
                 "model": "A", "tool": "STCG", "repetition": 0,
                 "schema": TRACE_SCHEMA,
                 "phases": {"solve": {"count": 1, "seconds": 0.05}}}
        first = build_manifest(events[:3] + [extra] + events[3:])
        last = build_manifest(events + [extra])
        assert first == last
        base = build_manifest(events)
        assert first["phase_seconds"]["solve"] == pytest.approx(
            base["phase_seconds"]["solve"] + 0.05
        )

    def test_metrics_fold_is_order_independent(self):
        events = _interleaved_cell_events()
        reference = build_manifest(events)["metrics"]
        assert reference["counters"]["run.solver_calls"] == 1 + 2 + 3 + 4
        assert reference["histograms"]["stcg.case_length"]["count"] == 4
        shuffled = events[:2] + list(reversed(events[2:-1])) + events[-1:]
        assert build_manifest(shuffled)["metrics"] == reference

    def test_workers_1_and_4_streams_build_identical_manifests(self):
        """End-to-end: real pooled runs produce the same manifest as serial
        (timing fields excluded — they are wall-clock, not aggregates)."""

        def manifest(workers):
            log = EventLog()
            result = execute_matrix(
                [TINY], ("STCG",), budget_s=2.0, repetitions=2, seed=5,
                workers=workers, events=log, trace=True,
            )
            assert not result.failures
            return log.manifest()

        serial, parallel = manifest(1), manifest(4)
        for key in ("coverage", "cells", "ok", "failed", "stalls"):
            assert serial[key] == parallel[key], key

        # Counters (solver stages, cache traffic, ...) are deterministic;
        # gauges such as stage seconds are wall-clock and jitter between
        # any two real runs, workers aside.
        assert serial["metrics"]["counters"]["run.solver_calls"] > 0
        assert (serial["metrics"]["counters"]
                == parallel["metrics"]["counters"])
        assert (serial["metrics"]["histograms"]
                == parallel["metrics"]["histograms"])
