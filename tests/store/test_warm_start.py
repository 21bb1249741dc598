"""Warm-start correctness: bit-identity, fuzz seeding, API wiring.

The core contract of :mod:`repro.store`: a warm-started STCG run is
**bit-identical** to a cold run at the same seed and budget.  The live
restore only replays draw-free derived state (UNSAT verdicts,
first-visit markers, contraction snapshots), none of which touches the
RNG stream, and clock reads happen at the same logical points warm and
cold — so under an injected deterministic clock the pin holds on every
registry model, including the budget-bound ones.
"""

import json

import pytest

from repro.core.config import FuzzConfig, StcgConfig, StoreConfig
from repro.core.stcg import StcgGenerator
from repro.errors import ReproError
from repro.fuzz.engine import FuzzGenerator, HybridGenerator
from repro.models.registry import benchmark_names, get_benchmark


def counting_clock(step=0.001):
    """A deterministic clock: every read advances one fixed tick."""
    now = [0.0]

    def clock():
        now[0] += step
        return now[0]

    return clock


def _suite_inputs(result):
    return [case.inputs for case in result.suite]


@pytest.mark.parametrize("name", benchmark_names())
def test_warm_equals_cold_on_every_registry_model(name, tmp_path):
    """The 8-model bit-identity pin, budget-bound models included.

    The solver's per-call wall-clock cutoff is raised out of the way
    (the lite backoff engine inherits it): it is the one remaining
    real-time source, and on a loaded machine it could time out a solve
    in one run but not the other.
    """
    from repro.solver.engine import SolverConfig

    config = StcgConfig(
        budget_s=0.6,
        seed=11,
        store=StoreConfig(path=str(tmp_path)),
        solver=SolverConfig(
            max_samples=48, avm_evaluations=700, time_budget_s=60.0
        ),
    )
    cold = StcgGenerator(
        get_benchmark(name).build(), config, clock=counting_clock()
    ).run()
    warm_gen = StcgGenerator(
        get_benchmark(name).build(), config, clock=counting_clock()
    )
    warm = warm_gen.run()
    assert warm_gen.stats["store_hits"] == 1
    assert _suite_inputs(warm) == _suite_inputs(cold)
    assert (warm.decision, warm.condition, warm.mcdc) == (
        cold.decision, cold.condition, cold.mcdc,
    )
    assert [case.origin for case in warm.suite] == [
        case.origin for case in cold.suite
    ]


def test_third_run_is_a_fixed_point(tmp_path):
    """run2 learns nothing new and skips its write; run3 still hits."""
    config = StcgConfig(
        budget_s=2.0, seed=7, store=StoreConfig(path=str(tmp_path))
    )
    build = get_benchmark("CPUTask").build
    StcgGenerator(build(), config).run()
    second = StcgGenerator(build(), config)
    second.run()
    assert second.stats["store_writes"] == 0
    third = StcgGenerator(build(), config)
    third.run()
    assert third.stats["store_hits"] == 1
    assert third.stats["store_writes"] == 0


def test_document_with_obsolete_folds_still_warm_starts(tmp_path):
    """A ``repro.store/2`` document written by an older build also holds
    a serialized state tree and an ``encodings`` fold.  The reader
    ignores both: the run is a bit-identical warm start, and it leaves
    the document as it found it."""
    import os

    from repro.solver.engine import SolverConfig

    config = StcgConfig(
        budget_s=0.6,
        seed=11,
        store=StoreConfig(path=str(tmp_path)),
        solver=SolverConfig(time_budget_s=60.0),
    )
    build = get_benchmark("CPUTask").build
    cold = StcgGenerator(build(), config, clock=counting_clock()).run()
    (name,) = [p for p in os.listdir(tmp_path) if p.endswith(".json")]
    path = os.path.join(str(tmp_path), name)
    with open(path) as handle:
        document = json.load(handle)
    payload = document["payload"]
    assert set(payload) == {"cache"}
    assert set(payload["cache"]) == {"fps", "verdicts", "markers", "snapshots"}
    payload["tree"] = {
        "schema": "repro.state_tree/1",
        "dedup": True,
        "nodes": [
            {"parent": None, "input": None, "state": {}, "covered": [0]}
        ],
        "solved": {},
        "obligations": {},
    }
    payload["cache"]["encodings"] = {
        "table": [["c", True, "bool"], ["u", "not", 0, "bool"]],
        "items": [[0, {"state": {}, "outcomes": {"0": [0, 1]}, "atoms": {}}]],
    }
    with open(path, "w") as handle:
        json.dump(document, handle)
    with open(path) as handle:
        written = handle.read()

    warm_gen = StcgGenerator(build(), config, clock=counting_clock())
    warm = warm_gen.run()
    assert warm_gen.stats["store_hits"] == 1
    assert warm_gen.stats["store_rejected"] == 0
    assert warm_gen.stats["restored_verdicts"] > 0
    assert _suite_inputs(warm) == _suite_inputs(cold)
    assert [case.origin for case in warm.suite] == [
        case.origin for case in cold.suite
    ]
    assert warm_gen.stats["store_writes"] == 0
    with open(path) as handle:
        assert handle.read() == written


class TestFuzzCorpusSeeding:
    def _fuzz_config(self, tmp_path, **fuzz_kwargs):
        return StcgConfig(
            budget_s=1.5,
            seed=5,
            store=StoreConfig(path=str(tmp_path)),
            fuzz=FuzzConfig(executions=128, **fuzz_kwargs),
        )

    def test_store_reseeds_the_next_campaign(self, tmp_path):
        build = get_benchmark("CPUTask").build
        first = FuzzGenerator(build(), self._fuzz_config(tmp_path))
        first.run()
        host = first._host
        assert host.stats["store_writes"] == 1
        second = FuzzGenerator(build(), self._fuzz_config(tmp_path))
        second.run()
        assert second._host.stats["store_hits"] == 1
        assert second._host.stats["corpus_seeds"] > 0

    def test_hybrid_store_scope_is_distinct(self, tmp_path):
        build = get_benchmark("CPUTask").build
        FuzzGenerator(build(), self._fuzz_config(tmp_path)).run()
        hybrid = HybridGenerator(build(), self._fuzz_config(tmp_path))
        hybrid.run()
        # The Fuzz document must not warm a Hybrid cell.
        assert hybrid._host.stats["store_misses"] == 1

    def test_corpus_in_seeds_from_file(self, tmp_path):
        corpus_path = str(tmp_path / "corpus.json")
        build = get_benchmark("CPUTask").build
        exporter = FuzzGenerator(
            build(),
            StcgConfig(
                budget_s=1.5, seed=5,
                fuzz=FuzzConfig(executions=128, corpus_out=corpus_path),
            ),
        )
        exporter.run()
        with open(corpus_path) as handle:
            exported = json.load(handle)
        assert exported["entries"]

        importer = FuzzGenerator(
            build(),
            StcgConfig(
                budget_s=1.5, seed=6,
                fuzz=FuzzConfig(executions=128, corpus_in=corpus_path),
            ),
        )
        importer.run()
        assert importer._host.stats["fuzz_seed_entries"] >= len(
            exported["entries"]
        )

    def test_corpus_in_missing_file_fails_loudly(self, tmp_path):
        gen = FuzzGenerator(
            get_benchmark("CPUTask").build(),
            StcgConfig(
                budget_s=1.0, seed=5,
                fuzz=FuzzConfig(
                    executions=64,
                    corpus_in=str(tmp_path / "nope.json"),
                ),
            ),
        )
        with pytest.raises(ReproError):
            gen.run()

    def test_corpus_in_garbage_file_fails_loudly(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        gen = FuzzGenerator(
            get_benchmark("CPUTask").build(),
            StcgConfig(
                budget_s=1.0, seed=5,
                fuzz=FuzzConfig(executions=64, corpus_in=str(bad)),
            ),
        )
        with pytest.raises(ReproError):
            gen.run()

    def test_store_corpus_garbage_degrades_softly(self, tmp_path):
        """A bad *store* corpus is soft (store_rejected), unlike a bad
        user-named --corpus-in file."""
        build = get_benchmark("CPUTask").build
        first = FuzzGenerator(build(), self._fuzz_config(tmp_path))
        first.run()
        # Scramble the corpus fold inside the stored document.
        import os

        (name,) = [
            p for p in os.listdir(tmp_path) if p.endswith(".json")
        ]
        path = os.path.join(str(tmp_path), name)
        with open(path) as handle:
            document = json.load(handle)
        document["payload"]["corpus"] = {"schema": "wrong/9", "entries": 7}
        with open(path, "w") as handle:
            json.dump(document, handle)

        second = FuzzGenerator(build(), self._fuzz_config(tmp_path))
        result = second.run()
        assert result.suite is not None  # run completed
        assert second._host.stats["store_rejected"] == 1
        assert second._host.stats["corpus_seeds"] == 0


class TestApiWiring:
    def test_generate_store_dir_round_trip(self, tmp_path):
        from repro import api

        first = api.generate(
            "CPUTask", tool="STCG", budget_s=2.0, seed=7,
            store_dir=str(tmp_path),
        )
        second = api.generate(
            "CPUTask", tool="STCG", budget_s=2.0, seed=7,
            store_dir=str(tmp_path),
        )
        assert second.stats["store_hits"] == 1
        assert _suite_inputs(first) == _suite_inputs(second)

    def test_generate_store_dir_rejects_non_stcg_tools(self, tmp_path):
        from repro import api
        from repro.errors import HarnessError

        with pytest.raises(HarnessError):
            api.generate(
                "CPUTask", tool="SLDV", budget_s=1.0,
                store_dir=str(tmp_path),
            )

    def test_store_counters_fold_into_manifest_metrics(self, tmp_path):
        from repro import api

        store = str(tmp_path / "store")
        events_path = str(tmp_path / "run.jsonl")
        api.generate(
            "CPUTask", tool="STCG", budget_s=1.5, seed=7, store_dir=store,
        )
        api.generate(
            "CPUTask", tool="STCG", budget_s=1.5, seed=7, store_dir=store,
            events_out=events_path,
        )
        events = [
            json.loads(line) for line in open(events_path)
        ]
        (metrics_event,) = [
            e for e in events if e.get("event") == "metrics"
        ]
        counters = metrics_event["snapshot"]["counters"]
        assert counters["store.hits"] == 1
        assert counters["store.restored_verdicts"] > 0
        manifest = json.load(
            open(str(tmp_path / "run.manifest.json"))
        )
        counters = manifest["metrics"]["counters"]
        assert counters["store.cells"] == 1
        assert counters["store.hits"] == 1
        assert counters["store.rejected"] == 0

    def test_run_experiment_store_dir(self, tmp_path):
        from repro import api

        store = str(tmp_path / "store")
        for _ in range(2):
            experiment = api.run_experiment(
                models=["CPUTask"], tools=["STCG"], budget_s=1.0,
                repetitions=1, store_dir=store,
                events_out=str(tmp_path / "mx.jsonl"),
            )
            assert not experiment.failures
        manifest = json.load(open(str(tmp_path / "mx.manifest.json")))
        assert manifest["metrics"]["counters"]["store.hits"] == 1

    def test_report_renders_store_section(self, tmp_path):
        from repro import api
        from repro.obs.report import render_report
        from repro.telemetry.events import read_events

        store = str(tmp_path / "store")
        events_path = str(tmp_path / "run.jsonl")
        api.generate(
            "CPUTask", tool="STCG", budget_s=1.0, seed=7, store_dir=store,
            events_out=events_path,
        )
        report = render_report(read_events(events_path))
        assert "warm-start store" in report
        assert "CPUTask/STCG" in report
