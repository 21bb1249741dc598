"""Fuzz/Hybrid generator behavior on the small fixture models."""

import itertools
import json

from repro import api
from repro.core.config import FuzzConfig, StcgConfig
from repro.fuzz.corpus import CORPUS_SCHEMA
from repro.fuzz.engine import FuzzGenerator, HybridGenerator, derive_fuzz_seed
from repro.models.registry import BenchmarkModel
from repro.telemetry import read_events
from tests.conftest import build_counter_model, build_queue_model


def tick_clock(step=0.01):
    """A deterministic clock: each call advances ``step`` virtual seconds."""
    ticks = itertools.count()
    return lambda: next(ticks) * step


def _config(**fuzz_kwargs):
    fuzz_kwargs.setdefault("executions", 150)
    return StcgConfig(
        seed=0, budget_s=60.0, provenance=True, fuzz=FuzzConfig(**fuzz_kwargs)
    )


class TestDeriveFuzzSeed:
    def test_stable(self):
        assert derive_fuzz_seed(0) == derive_fuzz_seed(0)

    def test_distinct_per_master_seed(self):
        seeds = {derive_fuzz_seed(n) for n in range(100)}
        assert len(seeds) == 100

    def test_isolated_from_the_master_seed(self):
        # The fuzz stream must not be STCG's stream: the derived seed is a
        # domain-separated hash, never the master seed itself.
        for master in range(100):
            assert derive_fuzz_seed(master) != master

    def test_fits_63_bits(self):
        assert 0 <= derive_fuzz_seed(2**63) < 2**63


class TestFuzzGenerator:
    def test_covers_the_counter_model(self):
        result = FuzzGenerator(
            build_counter_model(), _config(), clock=tick_clock()
        ).run()
        assert result.tool == "Fuzz"
        assert result.decision == 1.0
        assert len(result.suite) > 0
        assert all(c.origin == "fuzz" for c in result.suite)

    def test_fixed_seed_runs_are_identical(self):
        def run():
            return FuzzGenerator(
                build_queue_model(), _config(), clock=tick_clock()
            ).run()

        a, b = run(), run()
        assert a.summary.as_dict() == b.summary.as_dict()
        assert a.stats == b.stats
        assert [c.inputs for c in a.suite] == [c.inputs for c in b.suite]

    def test_execution_budget_is_binding(self):
        result = FuzzGenerator(
            build_queue_model(),
            StcgConfig(
                seed=0, budget_s=60.0, stop_on_full_coverage=False,
                fuzz=FuzzConfig(executions=40),
            ),
            clock=tick_clock(),
        ).run()
        assert result.stats["fuzz_executions"] == 40

    def test_stats_carry_the_fuzz_counters(self):
        result = FuzzGenerator(
            build_counter_model(), _config(), clock=tick_clock()
        ).run()
        for key in ("fuzz_executions", "fuzz_retained", "fuzz_rejected",
                    "fuzz_corpus_size", "fuzz_seed_entries", "fuzz_steps",
                    "fuzz_tree_nodes", "fuzz_wall_s"):
            assert key in result.stats, key
        assert result.stats["fuzz_corpus_size"] > 0

    def test_provenance_attributes_fuzz_origin(self):
        result = FuzzGenerator(
            build_counter_model(), _config(), clock=tick_clock()
        ).run()
        snapshot = result.provenance
        assert snapshot["tool"] == "Fuzz"
        origins = {
            entry.get("origin")
            for entry in snapshot["objectives"].values()
            if entry.get("status") == "covered"
        }
        assert origins == {"fuzz"}

    def test_corpus_out_writes_the_artifact(self, tmp_path):
        path = tmp_path / "corpus.json"
        FuzzGenerator(
            build_counter_model(),
            _config(corpus_out=str(path)),
            clock=tick_clock(),
        ).run()
        document = json.loads(path.read_text())
        assert document["schema"] == CORPUS_SCHEMA
        assert len(document["entries"]) > 0


class TestHybridGenerator:
    def test_never_regresses_stcg_on_the_counter_model(self):
        from repro.core.stcg import StcgGenerator

        config = _config()
        stcg = StcgGenerator(
            build_counter_model(), config, clock=tick_clock()
        ).run()
        hybrid = HybridGenerator(
            build_counter_model(), config, clock=tick_clock()
        ).run()
        assert hybrid.tool == "Hybrid"
        assert hybrid.decision >= stcg.decision
        assert hybrid.condition >= stcg.condition
        assert hybrid.mcdc >= stcg.mcdc

    def test_fixed_seed_runs_are_identical(self):
        def run():
            return HybridGenerator(
                build_queue_model(), _config(), clock=tick_clock()
            ).run()

        a, b = run(), run()
        assert a.summary.as_dict() == b.summary.as_dict()
        assert a.stats == b.stats
        assert [c.inputs for c in a.suite] == [c.inputs for c in b.suite]


class TestApiIntegration:
    def _bench(self, name="Tiny"):
        return BenchmarkModel(name, "counter fixture", build_counter_model, 0, 0)

    def test_generate_dispatches_fuzz_tool(self):
        result = api.generate(
            self._bench(), tool="Fuzz", budget_s=30.0, seed=0,
            config=_config(),
        )
        assert result.tool == "Fuzz"
        assert result.stats["fuzz_executions"] > 0

    def test_fuzz_counters_reach_the_metrics_event(self, tmp_path):
        events_path = tmp_path / "fuzz.jsonl"
        api.generate(
            self._bench(), tool="Fuzz", budget_s=30.0, seed=0,
            config=_config(), events_out=str(events_path),
        )
        events = read_events(str(events_path))
        metrics_events = [e for e in events if e["event"] == "metrics"]
        assert len(metrics_events) == 1
        assert metrics_events[0]["tool"] == "Fuzz"
        snapshot = metrics_events[0]["snapshot"]
        assert snapshot["counters"]["fuzz.executions"] > 0
        assert snapshot["gauges"]["fuzz.corpus_size"]["value"] > 0
        # The wall time executions/sec derives from (see repro.metrics.RATES).
        assert snapshot["gauges"]["fuzz.seconds"]["value"] > 0

    def test_manifest_gains_the_fuzz_section(self, tmp_path):
        events_path = tmp_path / "fuzz.jsonl"
        api.generate(
            self._bench(), tool="Fuzz", budget_s=30.0, seed=0,
            config=_config(), events_out=str(events_path),
        )
        manifest = json.loads(
            (tmp_path / "fuzz.manifest.json").read_text()
        )
        counters = manifest["metrics"]["counters"]
        assert counters["fuzz.cells"] == 1
        assert counters["fuzz.executions"] > 0
