"""The one counter path: declared namespace, run-end projection, rates."""

import json

import pytest

from repro import api
from repro.exec import ALL_TOOLS
from repro.metrics import (
    METRICS_SCHEMA,
    RATES,
    MetricsRegistry,
    declare_instruments,
    derived_rates,
    format_rate,
    populate_registry,
)
from repro.models.registry import BenchmarkModel
from repro.telemetry import read_events

from tests.conftest import build_counter_model

TINY = BenchmarkModel("Tiny", "counter fixture", build_counter_model, 0, 0)

_KINDS = ("counters", "gauges", "histograms")


def _declared():
    return declare_instruments(MetricsRegistry()).snapshot()


class TestEveryToolEmitsOneSnapshot:
    @pytest.mark.parametrize("tool", ALL_TOOLS)
    def test_untraced_run_carries_the_declared_key_set(self, tool, tmp_path):
        events_path = tmp_path / "run.jsonl"
        result = api.generate(
            TINY, tool=tool, budget_s=2.0, seed=0,
            events_out=str(events_path),
        )
        snapshot = result.metrics
        assert snapshot["schema"] == METRICS_SCHEMA
        declared = _declared()
        for kind in _KINDS:
            assert set(snapshot[kind]) == set(declared[kind]), kind
        assert snapshot["counters"]["run.cells"] == 1
        # Exactly one metrics event, carrying the result's snapshot.
        events = read_events(str(events_path))
        metrics_events = [e for e in events if e["event"] == "metrics"]
        assert len(metrics_events) == 1
        assert metrics_events[0]["schema"] == METRICS_SCHEMA
        assert metrics_events[0]["snapshot"] == snapshot
        manifest = json.loads(
            (tmp_path / "run.manifest.json").read_text()
        )
        assert manifest["metrics"]["counters"] == snapshot["counters"]

    def test_tool_neutral_counters_are_shared(self):
        stcg = api.generate(TINY, tool="STCG", budget_s=2.0, seed=0)
        simco = api.generate(TINY, tool="SimCoTest", budget_s=2.0, seed=0)
        sldv = api.generate(TINY, tool="SLDV", budget_s=2.0, seed=0)
        assert stcg.metrics["counters"]["run.solver_calls"] == \
            stcg.stats["solver_calls"]
        assert sldv.metrics["counters"]["run.solver_calls"] == \
            sldv.stats["solver_calls"]
        assert simco.metrics["counters"]["run.simulations"] == \
            simco.stats["simulations"] > 0
        for result in (stcg, simco, sldv):
            assert result.metrics["counters"]["run.steps_executed"] == \
                result.stats["steps_executed"] > 0


class TestProjection:
    def test_subsystems_a_run_lacks_stay_zero(self):
        snapshot = populate_registry(
            MetricsRegistry(), stats={"solver_calls": 3}
        ).snapshot()
        counters = snapshot["counters"]
        assert counters["run.solver_calls"] == 3
        assert counters["fuzz.cells"] == 0
        assert counters["store.cells"] == 0
        assert snapshot["gauges"]["kernel.enabled"]["value"] == 0.0

    def test_fuzz_and_store_counters(self):
        stats = {
            "fuzz_executions": 7, "fuzz_corpus_size": 3,
            "fuzz_targets": 4, "fuzz_targets_covered": 2,
            "fuzz_wall_s": 0.5,
            "store_reads": 1, "store_hits": 1, "restored_verdicts": 9,
        }
        snapshot = populate_registry(MetricsRegistry(), stats=stats).snapshot()
        counters = snapshot["counters"]
        assert counters["fuzz.cells"] == 1
        assert counters["fuzz.executions"] == 7
        assert counters["fuzz.targets"] == 4
        assert counters["fuzz.targets_covered"] == 2
        assert snapshot["gauges"]["fuzz.corpus_size"]["value"] == 3.0
        assert snapshot["gauges"]["fuzz.seconds"]["value"] == 0.5
        assert counters["store.cells"] == 1
        assert counters["store.reads"] == counters["store.hits"] == 1
        assert counters["store.restored_verdicts"] == 9

    def test_kernel_fallback_classes_become_counters(self):
        snapshot = populate_registry(
            MetricsRegistry(), stats={},
            kernel={"specialized_blocks": 5, "fallback_blocks": 2,
                    "fallback_classes": ["Lookup", "MovingAverage"],
                    "kernel_steps": 11},
        ).snapshot()
        counters = snapshot["counters"]
        assert counters["kernel.fallback.Lookup"] == 1
        assert counters["kernel.fallback.MovingAverage"] == 1
        assert counters["kernel.steps"] == 11
        assert snapshot["gauges"]["kernel.enabled"]["value"] == 1.0


class TestRates:
    def test_rates_read_counters_and_gauges(self):
        snapshot = populate_registry(
            MetricsRegistry(),
            stats={"fuzz_executions": 100, "fuzz_wall_s": 0.5},
            solver_stages={"avm": {"attempts": 4, "finished": 4,
                                   "wins": 1, "seconds": 0.1}},
            cache={"encoding_hits": 3, "encoding_misses": 1},
        ).snapshot()
        rates = derived_rates(snapshot)
        assert list(rates) == [name for name, _, _ in RATES]
        assert rates["cache_hit"] == pytest.approx(0.75)
        assert rates["avm_win"] == pytest.approx(0.25)
        assert rates["fuzz_execs_per_s"] == pytest.approx(200.0)
        # Zero denominators are undefined, not zero.
        assert rates["kernel_fallback"] is None
        assert rates["sample_win"] is None

    def test_format_rate(self):
        assert format_rate("cache_hit", 0.75) == "75.0%"
        assert format_rate("fuzz_execs_per_s", 200.4) == "200/s"
        assert format_rate("cache_hit", None) == "--"
