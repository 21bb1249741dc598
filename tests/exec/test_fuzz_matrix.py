"""Fuzz/Hybrid cells through the matrix executor: dispatch + determinism."""

import pytest

from repro.core.config import FuzzConfig
from repro.exec import ALL_TOOLS, TOOLS, execute_matrix
from repro.models.registry import BenchmarkModel
from repro.telemetry.events import EventLog
from tests.conftest import build_counter_model

TINY = BenchmarkModel("Tiny", "counter fixture", build_counter_model, 0, 0)

#: Count-based fuzz budget: small enough to finish well inside the wall
#: budget, so the campaigns are deterministic end to end.
OVERRIDES = {"fuzz": FuzzConfig(executions=120)}

#: Manifest fields that are inherently wall-clock (present in every run;
#: everything else must be bit-identical across worker counts).
WALL_FIELDS = ("wall_s", "cell_seconds", "phase_seconds")


def _matrix(workers):
    events = EventLog()
    result = execute_matrix(
        [TINY], ("Fuzz", "Hybrid"), budget_s=30.0, repetitions=2, seed=3,
        workers=workers, events=events, stcg_overrides=OVERRIDES,
    )
    assert not result.failures, result.failures
    return result


def _comparable(manifest):
    stripped = {
        key: value for key, value in manifest.items()
        if key not in WALL_FIELDS
    }
    # The worker count is the experiment knob under test, not an output.
    stripped["config"] = {
        k: v for k, v in (manifest.get("config") or {}).items()
        if k != "workers"
    }
    # So are the metrics' wall-clock gauges (``*.seconds``); counters,
    # histograms and the max-gauges (sizes, enabled flags) must match.
    metrics = dict(manifest["metrics"])
    metrics["gauges"] = {
        name: gauge for name, gauge in metrics["gauges"].items()
        if not name.endswith(".seconds")
    }
    stripped["metrics"] = metrics
    return stripped


class TestDispatch:
    def test_all_tools_extends_the_paper_matrix(self):
        assert TOOLS == ("SLDV", "SimCoTest", "STCG")
        assert ALL_TOOLS == TOOLS + ("Fuzz", "Hybrid")

    @pytest.mark.parametrize("tool", ["Fuzz", "Hybrid"])
    def test_cells_run_and_report_fuzz_stats(self, tool):
        result = execute_matrix(
            [TINY], (tool,), budget_s=30.0, repetitions=1, seed=0,
            workers=1, stcg_overrides=OVERRIDES,
        )
        outcome = result.outcomes["Tiny"][tool]
        assert outcome.ok
        run = outcome.runs[0]
        assert run.tool == tool
        if tool == "Fuzz":
            assert run.stats["fuzz_executions"] > 0
        # A hybrid whose phase-1 STCG already covers everything skips the
        # campaign loop, but still seeds the corpus from the suite.
        assert run.stats["fuzz_corpus_size"] > 0


class TestManifestIdentity:
    def test_fuzz_manifests_bit_identical_across_worker_counts(self):
        """The acceptance pin: a fixed-seed Fuzz/Hybrid matrix produces
        the same manifest (modulo wall-clock fields) at workers=1 and
        workers=N."""
        serial = _matrix(1)
        parallel = _matrix(2)
        assert _comparable(serial.manifest) == _comparable(parallel.manifest)
        metrics = serial.manifest["metrics"]
        assert metrics["counters"]["fuzz.cells"] == 4
        assert metrics["counters"]["fuzz.executions"] > 0
        # A max-gauge: the largest corpus of any cell, not a per-cell sum.
        assert metrics["gauges"]["fuzz.corpus_size"]["value"] > 0

    def test_coverage_aggregates_identical(self):
        serial = _matrix(1)
        parallel = _matrix(2)
        for tool in ("Fuzz", "Hybrid"):
            a = serial.outcomes["Tiny"][tool]
            b = parallel.outcomes["Tiny"][tool]
            assert a.decision == b.decision
            assert a.condition == b.condition
            assert a.mcdc == b.mcdc
            assert [len(r.suite) for r in a.runs] == [
                len(r.suite) for r in b.runs
            ]
