"""Tests for worker heartbeats, the stall watchdog, and observation purity."""

import json
import os

import pytest

from repro.errors import ReproError
from repro.exec import (
    HEARTBEAT_SCHEMA,
    StallWatchdog,
    execute_matrix,
    heartbeat_dir_for,
    read_heartbeats,
)
from repro.exec.heartbeat import HeartbeatConfig, HeartbeatWriter, peak_rss_kb
from repro.models.registry import BenchmarkModel
from repro.obs.probe import PROBE, ProgressProbe
from repro.telemetry.events import EventLog, read_events

from tests.conftest import build_counter_model

TINY = BenchmarkModel("Tiny", "counter fixture", build_counter_model, 0, 0)


class TestProgressProbe:
    def test_inactive_probe_samples_none(self):
        probe = ProgressProbe()
        assert probe.sample() is None

    def test_activate_note_sample_deactivate(self):
        probe = ProgressProbe()
        probe.activate(cell=3, model="M", tool="STCG", repetition=1)
        probe.note(phase="solve_scan", tree_nodes=7, solver_calls=4,
                   coverage_fn=lambda: 0.5)
        sample = probe.sample()
        assert sample["cell"] == 3
        assert sample["model"] == "M"
        assert sample["phase"] == "solve_scan"
        assert sample["tree_nodes"] == 7
        assert sample["solver_calls"] == 4
        assert sample["coverage"] == 0.5
        probe.deactivate()
        assert probe.sample() is None

    def test_broken_coverage_fn_degrades_to_none(self):
        probe = ProgressProbe()
        probe.activate(cell=0)

        def boom():
            raise RuntimeError("torn read")

        probe.note(coverage_fn=boom)
        assert probe.sample()["coverage"] is None


class TestHeartbeatWriter:
    def test_beats_carry_schema_and_rss(self, tmp_path):
        writer = HeartbeatWriter(
            HeartbeatConfig(directory=str(tmp_path), interval_s=60.0)
        )
        try:
            PROBE.activate(cell=0, model="M", tool="STCG", repetition=0)
            beat = writer.beat_now()
        finally:
            PROBE.deactivate()
            writer.stop()
        assert beat["schema"] == HEARTBEAT_SCHEMA
        assert beat["pid"] == os.getpid()
        assert isinstance(beat["rss_kb"], int) and beat["rss_kb"] > 0
        beats = read_heartbeats(str(tmp_path))
        assert beats == [beat]

    def test_beat_between_cells_is_noop(self, tmp_path):
        writer = HeartbeatWriter(
            HeartbeatConfig(directory=str(tmp_path), interval_s=60.0)
        )
        try:
            assert writer.beat_now() is None
        finally:
            writer.stop()
        assert read_heartbeats(str(tmp_path)) == []

    def test_malformed_sidecar_line_raises(self, tmp_path):
        (tmp_path / "hb-1.jsonl").write_text('{"cell": 0}\nnot json\n')
        with pytest.raises(ReproError, match="malformed heartbeat"):
            read_heartbeats(str(tmp_path))

    def test_peak_rss_is_positive(self):
        assert peak_rss_kb() > 0


class TestMatrixHeartbeats:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_every_cell_leaves_beats(self, tmp_path, workers):
        path = str(tmp_path / "run.jsonl")
        with EventLog(path) as log:
            result = execute_matrix(
                [TINY], ("STCG",), budget_s=2.0, repetitions=2,
                workers=workers, events=log, heartbeat_s=0.05,
            )
        assert not result.failures
        beats = read_heartbeats(heartbeat_dir_for(path))
        # Immediate entry + final "done" beat per cell, at minimum.
        seen_cells = {b["cell"] for b in beats}
        assert seen_cells == {0, 1}
        for beat in beats:
            assert beat["schema"] == HEARTBEAT_SCHEMA
            assert beat["model"] == "Tiny" and beat["tool"] == "STCG"
            assert beat["rss_kb"] > 0
        # Each cell's last beat is the terminal one.
        for cell in seen_cells:
            assert [b for b in beats if b["cell"] == cell][-1]["phase"] == "done"

    def test_explicit_heartbeat_dir(self, tmp_path):
        hb_dir = str(tmp_path / "beats")
        execute_matrix(
            [TINY], ("STCG",), budget_s=2.0, repetitions=1, workers=1,
            heartbeat_s=0.05, heartbeat_dir=hb_dir,
        )
        assert read_heartbeats(hb_dir)

    def test_invalid_heartbeat_args_rejected(self):
        from repro.errors import HarnessError

        with pytest.raises(HarnessError):
            execute_matrix([TINY], ("STCG",), budget_s=1.0, heartbeat_s=0.0)
        with pytest.raises(HarnessError):
            execute_matrix(
                [TINY], ("STCG",), budget_s=1.0,
                heartbeat_s=1.0, stall_fraction=0.0,
            )


class TestStallWatchdog:
    def _beat(self, cell, phase="solve_scan"):
        return {
            "schema": HEARTBEAT_SCHEMA, "pid": 1, "n": 0,
            "cell": cell, "model": "M", "tool": "STCG", "repetition": 0,
            "phase": phase, "tree_nodes": 5, "solver_calls": 2,
            "coverage": 0.4, "rss_kb": 1000,
        }

    def _write(self, directory, beats, name="hb-1.jsonl"):
        path = os.path.join(str(directory), name)
        with open(path, "a") as handle:
            for beat in beats:
                handle.write(json.dumps(beat) + "\n")

    def test_quiet_cell_is_flagged_once(self, tmp_path):
        events = EventLog()
        dog = StallWatchdog(str(tmp_path), quiet_s=10.0, emit=events.emit)
        self._write(tmp_path, [self._beat(0)])
        now = 100.0
        dog._clock = lambda: now  # drive the scan clock by hand
        assert dog.scan() == 1
        assert dog.check(now + 5.0) == []  # still within the threshold
        assert dog.check(now + 11.0) == [0]
        assert dog.check(now + 50.0) == []  # flagged only once
        stalled = events.of_kind("cell_stalled")
        assert len(stalled) == 1
        assert stalled[0]["cell"] == 0
        assert stalled[0]["model"] == "M"
        assert stalled[0]["phase"] == "solve_scan"
        assert stalled[0]["last_tree_nodes"] == 5
        assert stalled[0]["quiet_s"] >= 10.0
        assert dog.stalled_cells == [0]

    def test_fresh_beat_resets_the_clock(self, tmp_path):
        events = EventLog()
        dog = StallWatchdog(str(tmp_path), quiet_s=10.0, emit=events.emit)
        self._write(tmp_path, [self._beat(0)])
        dog._clock = lambda: 100.0
        dog.scan()
        self._write(tmp_path, [self._beat(0, phase="execute")])
        dog._clock = lambda: 109.0
        dog.scan()  # new beat observed at t=109
        assert dog.check(112.0) == []  # only 3s quiet
        assert dog.check(120.0) == [0]
        assert events.of_kind("cell_stalled")[0]["phase"] == "execute"

    def test_done_cells_never_stall(self, tmp_path):
        events = EventLog()
        dog = StallWatchdog(str(tmp_path), quiet_s=10.0, emit=events.emit)
        self._write(tmp_path, [self._beat(0)])
        dog._clock = lambda: 100.0
        dog.scan()
        dog.note_done(0)
        assert dog.check(1000.0) == []
        assert events.of_kind("cell_stalled") == []

    def test_beatless_cells_are_queued_not_stalled(self, tmp_path):
        events = EventLog()
        dog = StallWatchdog(str(tmp_path), quiet_s=10.0, emit=events.emit)
        dog.scan()  # empty directory: nothing to observe
        assert dog.check(1e9) == []

    def test_torn_final_line_waits_for_the_next_scan(self, tmp_path):
        events = EventLog()
        dog = StallWatchdog(str(tmp_path), quiet_s=10.0, emit=events.emit)
        line = json.dumps(self._beat(0)) + "\n"
        path = os.path.join(str(tmp_path), "hb-1.jsonl")
        with open(path, "w") as handle:
            handle.write(line[: len(line) // 2])
        dog._clock = lambda: 100.0
        assert dog.scan() == 0
        with open(path, "a") as handle:
            handle.write(line[len(line) // 2:])
        assert dog.scan() == 1

    def test_invalid_quiet_rejected(self, tmp_path):
        with pytest.raises(ReproError):
            StallWatchdog(str(tmp_path), quiet_s=0.0, emit=lambda *a, **k: None)

    def test_matrix_emits_cell_stalled_for_a_hung_cell(self, tmp_path):
        """End-to-end: a sleeping cell trips the watchdog before its timeout."""
        from tests.conftest import build_sleepy_model

        sleepy = BenchmarkModel("Sleepy", "hang injection",
                                build_sleepy_model, 0, 0)
        path = str(tmp_path / "run.jsonl")
        with EventLog(path) as log:
            execute_matrix(
                [sleepy], ("STCG",), budget_s=1.0, repetitions=1, workers=1,
                cell_timeout=2.0, events=log,
                heartbeat_s=0.05, stall_fraction=0.2,
            )
        stalled = [e for e in read_events(path) if e["event"] == "cell_stalled"]
        assert stalled and stalled[0]["model"] == "Sleepy"


def _suite_content(result):
    """The deterministic part of a suite: inputs, origins, new branches.

    Case timestamps are wall-clock and jitter between runs even at a
    fixed seed, so equivalence pins everything *but* them.
    """
    return [
        (case.inputs, case.origin, case.new_branch_ids)
        for case in result.suite
    ]


class TestObservationDoesNotPerturb:
    """Fixed-seed suites must be bit-identical with observability on or off."""

    def test_heartbeats_do_not_change_the_suite(self, tmp_path):
        baseline = execute_matrix(
            [TINY], ("STCG",), budget_s=5.0, repetitions=1, seed=7, workers=1,
        )
        observed = execute_matrix(
            [TINY], ("STCG",), budget_s=5.0, repetitions=1, seed=7, workers=1,
            heartbeat_s=0.05, heartbeat_dir=str(tmp_path / "hb"),
        )
        a = baseline.outcomes["Tiny"]["STCG"].runs[0]
        b = observed.outcomes["Tiny"]["STCG"].runs[0]
        assert _suite_content(a) == _suite_content(b)
        assert a.stats == b.stats


class TestWorkerMergeEquivalence:
    """workers=1 and workers=N fold to identical metric totals."""

    def _manifest(self, workers, trace=True):
        log = EventLog()
        result = execute_matrix(
            [TINY], ("STCG", "SimCoTest"), budget_s=2.0, repetitions=2,
            seed=3, workers=workers, events=log, trace=trace,
        )
        assert not result.failures
        return result.manifest

    def _assert_identical_totals(self, trace):
        serial = self._manifest(1, trace)
        parallel = self._manifest(4, trace)
        assert serial["metrics"], "every run must fold metrics"
        assert serial["metrics"]["counters"]["run.solver_calls"] > 0
        # Counters and histogram bucket counts are deterministic; gauges
        # carry wall-clock timing and are excluded from the pin.
        assert serial["metrics"]["counters"] == parallel["metrics"]["counters"]
        assert (
            serial["metrics"]["histograms"]
            == parallel["metrics"]["histograms"]
        )
        assert serial["coverage"] == parallel["coverage"]

    def test_workers_1_and_4_metric_totals_identical(self):
        self._assert_identical_totals(trace=True)

    def test_untraced_workers_1_and_4_metric_totals_identical(self):
        self._assert_identical_totals(trace=False)
