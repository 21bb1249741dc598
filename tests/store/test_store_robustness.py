"""Store integrity: every corruption mode degrades to a cold start.

The warm-start store must never take a generation run down.  These
tests feed the loader truncated files, garbage, schema bumps, and
digest mismatches, and assert the run (a) completes with cold-run
results and (b) counts ``store_rejected`` so the degradation is
observable.
"""

import json
import os

import pytest

from repro.cache import SolveCache
from repro.core.config import StcgConfig, StoreConfig
from repro.core.stcg import StcgGenerator
from repro.store import STORE_SCHEMA, WarmStore, config_digest, model_digest
from tests.conftest import build_counter_model
from repro.expr.types import INT
from repro.model import ModelBuilder


def _config(tmp_path, **kwargs):
    return StcgConfig(
        budget_s=1.0,
        seed=3,
        store=StoreConfig(path=str(tmp_path)),
        **kwargs,
    )


def _run(tmp_path, build=build_counter_model, **kwargs):
    gen = StcgGenerator(build(), _config(tmp_path, **kwargs))
    result = gen.run()
    return gen, result


def _store_files(tmp_path):
    return sorted(
        p for p in os.listdir(tmp_path) if p.endswith(".json")
    )


class TestLifecycle:
    def test_cold_miss_then_write(self, tmp_path):
        gen, _ = _run(tmp_path)
        assert gen.stats["store_misses"] == 1
        assert gen.stats["store_hits"] == 0
        assert gen.stats["store_writes"] == 1
        assert len(_store_files(tmp_path)) == 1

    def test_second_run_hits_and_is_identical(self, tmp_path):
        _, cold = _run(tmp_path)
        gen, warm = _run(tmp_path)
        assert gen.stats["store_hits"] == 1
        assert gen.stats["restored_verdicts"] > 0
        assert [c.inputs for c in warm.suite] == [
            c.inputs for c in cold.suite
        ]

    def test_unchanged_warm_rerun_skips_the_write(self, tmp_path):
        _run(tmp_path)
        gen, _ = _run(tmp_path)
        # Nothing was learned beyond the restored folds, so saving
        # again would only rewrite the same document.
        assert gen.stats["store_hits"] == 1
        assert gen.stats["store_writes"] == 0

    def test_read_flag_off_never_touches_the_store(self, tmp_path):
        _run(tmp_path)
        config = StcgConfig(
            budget_s=1.0, seed=3,
            store=StoreConfig(path=str(tmp_path), read=False),
        )
        gen = StcgGenerator(build_counter_model(), config)
        gen.run()
        assert gen.stats["store_reads"] == 0
        assert gen.stats["store_hits"] == 0

    def test_write_flag_off_never_writes(self, tmp_path):
        config = StcgConfig(
            budget_s=1.0, seed=3,
            store=StoreConfig(path=str(tmp_path), write=False),
        )
        gen = StcgGenerator(build_counter_model(), config)
        gen.run()
        assert gen.stats["store_writes"] == 0
        assert _store_files(tmp_path) == []

    def test_seed_scopes_to_distinct_documents(self, tmp_path):
        _run(tmp_path)
        gen = StcgGenerator(
            build_counter_model(),
            StcgConfig(budget_s=1.0, seed=4,
                       store=StoreConfig(path=str(tmp_path))),
        )
        gen.run()
        assert gen.stats["store_misses"] == 1  # other seed's doc ignored
        assert len(_store_files(tmp_path)) == 2


def _corrupt(tmp_path, mutate):
    """Apply ``mutate(document) -> text`` to the single stored file."""
    (name,) = _store_files(tmp_path)
    path = os.path.join(str(tmp_path), name)
    with open(path) as handle:
        document = json.load(handle)
    with open(path, "w") as handle:
        handle.write(mutate(document))


def _expect_cold_fallback(tmp_path, cold_suite):
    gen, result = _run(tmp_path)
    assert gen.stats["store_hits"] == 0
    assert gen.stats["store_rejected"] == 1
    assert gen.stats["restored_verdicts"] == 0
    # Degraded run is exactly the cold run.
    assert [c.inputs for c in result.suite] == cold_suite
    return gen


class TestCorruption:
    def test_truncated_file_degrades_to_cold(self, tmp_path):
        _, cold = _run(tmp_path)
        cold_suite = [c.inputs for c in cold.suite]
        _corrupt(tmp_path, lambda doc: json.dumps(doc)[: 200])
        _expect_cold_fallback(tmp_path, cold_suite)

    def test_garbage_file_degrades_to_cold(self, tmp_path):
        _, cold = _run(tmp_path)
        cold_suite = [c.inputs for c in cold.suite]
        _corrupt(tmp_path, lambda doc: "\x00not json at all")
        _expect_cold_fallback(tmp_path, cold_suite)

    def test_schema_bump_retires_the_document(self, tmp_path):
        _, cold = _run(tmp_path)
        cold_suite = [c.inputs for c in cold.suite]

        def bump(doc):
            doc["schema"] = "repro.store/0"
            return json.dumps(doc)

        _corrupt(tmp_path, bump)
        _expect_cold_fallback(tmp_path, cold_suite)

    def test_model_digest_mismatch_rejected(self, tmp_path):
        _, cold = _run(tmp_path)
        cold_suite = [c.inputs for c in cold.suite]

        def tamper(doc):
            doc["model_digest"] = "0" * 64
            return json.dumps(doc)

        _corrupt(tmp_path, tamper)
        _expect_cold_fallback(tmp_path, cold_suite)

    def test_config_digest_mismatch_rejected(self, tmp_path):
        _, cold = _run(tmp_path)
        cold_suite = [c.inputs for c in cold.suite]

        def tamper(doc):
            doc["config_digest"] = "f" * 64
            return json.dumps(doc)

        _corrupt(tmp_path, tamper)
        _expect_cold_fallback(tmp_path, cold_suite)

    def test_malformed_folds_degrade_to_cold(self, tmp_path):
        """Valid envelope, garbage payload: decode-then-apply protects
        the cache, so the run is still exactly cold."""
        _, cold = _run(tmp_path)
        cold_suite = [c.inputs for c in cold.suite]

        def scramble(doc):
            doc["payload"]["cache"]["verdicts"] = [[999999, ["b", 1], True]]
            return json.dumps(doc)

        _corrupt(tmp_path, scramble)
        _expect_cold_fallback(tmp_path, cold_suite)

    def test_malformed_snapshot_fold_degrades_to_cold(self, tmp_path):
        _, cold = _run(tmp_path)
        cold_suite = [c.inputs for c in cold.suite]

        def scramble(doc):
            cache = doc["payload"]["cache"]
            assert cache["fps"]  # index 0 resolves; the interval does not
            cache["snapshots"] = [[0, ["b", 1], True, {"x": [1.0]}]]
            return json.dumps(doc)

        _corrupt(tmp_path, scramble)
        _expect_cold_fallback(tmp_path, cold_suite)

    def test_payload_not_a_dict_rejected(self, tmp_path):
        _, cold = _run(tmp_path)
        cold_suite = [c.inputs for c in cold.suite]

        def scramble(doc):
            doc["payload"] = [1, 2, 3]
            return json.dumps(doc)

        _corrupt(tmp_path, scramble)
        _expect_cold_fallback(tmp_path, cold_suite)


def _threshold_model(threshold):
    """build_counter_model with a configurable guard constant."""
    b = ModelBuilder("Counter")
    from repro.expr.types import BOOL

    tick = b.inport("tick", BOOL)
    amount = b.inport("amount", INT, 0, 10)
    b.data_store("count", INT, 0)
    count = b.store_read("count")
    new_count = b.switch(tick, b.add(count, amount), count, name="tick_gate")
    b.store_write("count", new_count)
    high = b.compare(new_count, ">", threshold, name="is_high")
    level = b.switch(high, b.const(2), b.const(1), name="level")
    b.outport("level", level)
    b.outport("count", new_count)
    return b.compile()


class TestDigests:
    def test_model_edit_changes_the_digest(self):
        """Same structure, different guard constant — the one-step
        semantics fold must catch it."""
        assert model_digest(_threshold_model(15)) != model_digest(
            _threshold_model(16)
        )

    def test_identical_builds_share_a_digest(self):
        assert model_digest(_threshold_model(15)) == model_digest(
            _threshold_model(15)
        )

    def test_model_edit_invalidates_stored_state(self, tmp_path):
        """Warm-start against an edited model is a miss or a rejection,
        never a hit — the old folds must not leak into the new model."""
        config = StcgConfig(
            budget_s=1.0, seed=3, store=StoreConfig(path=str(tmp_path))
        )
        StcgGenerator(_threshold_model(15), config).run()
        gen = StcgGenerator(_threshold_model(16), config)
        gen.run()
        assert gen.stats["store_hits"] == 0
        assert gen.stats["restored_verdicts"] == 0

    #: ``model_digest`` of every registry model, as computed when the
    #: digest still folded in a one-step *encoding* of the initial state;
    #: stores written then must stay valid (``STORE_SCHEMA`` unchanged).
    REGISTRY_DIGESTS = {
        "CPUTask": "bd25fe597787256c976bb80e51b828521c26ca964cb93ffc61153e5f322524d3",
        "AFC": "490c7ea5800079d2dbe53c0bc6c5468a89f4c256f7c8862092509b3028146c73",
        "TWC": "932260bc26635f88150cb7afaeb50b87cfa75c05e82c8a18a1b1bb57a6ae263f",
        "NICProtocol": "db83fedb2a479438d46fa21ca82ba5218bfb8bd28866e11b04153c056badfd9f",
        "UTPC": "404b3cb1861c80bfd99d36552c977816109a101efbccd139d28d99cd9c6ed643",
        "LANSwitch": "ba01c1f3bfa94447fab8da8e283d3224f203f0b7df2741a5e015d78fa1e86bd7",
        "LEDLC": "087a783360c752bc9f15e9e5e0de8a5dd28e6034955c7f0fc1546583d7ba7de7",
        "TCP": "2063c9170030591a2ea83e365b9037c96e162311b63249c956d71732f3b036ad",
    }

    @pytest.mark.parametrize("name", sorted(REGISTRY_DIGESTS))
    def test_registry_digests_are_pinned(self, name):
        from repro.models.registry import get_benchmark

        digest = model_digest(get_benchmark(name).build())
        assert digest == self.REGISTRY_DIGESTS[name]
        assert STORE_SCHEMA == "repro.store/2"

    def test_config_edit_changes_the_digest(self):
        base = StcgConfig(budget_s=1.0, seed=0)
        ablated = StcgConfig(budget_s=1.0, seed=0, skip_constant_false=False)
        proving = StcgConfig(budget_s=1.0, seed=0, prove_dead_branches=True)
        digests = {config_digest(c) for c in (base, ablated, proving)}
        assert len(digests) == 3

    def test_budget_and_seed_do_not_change_the_digest(self):
        a = StcgConfig(budget_s=1.0, seed=0)
        b = StcgConfig(budget_s=99.0, seed=123)
        assert config_digest(a) == config_digest(b)


class TestWarmStoreUnit:
    def test_missing_file_is_a_miss(self, tmp_path):
        store = WarmStore(
            StoreConfig(path=str(tmp_path)),
            build_counter_model(),
            StcgConfig(budget_s=1.0),
            scope="unit",
        )
        payload, status = store.load()
        assert payload is None and status == "miss"

    def test_save_then_load_round_trips(self, tmp_path):
        store = WarmStore(
            StoreConfig(path=str(tmp_path)),
            build_counter_model(),
            StcgConfig(budget_s=1.0),
            scope="unit",
        )
        assert store.save({"k": [1, 2, {"v": True}]})
        payload, status = store.load()
        assert status == "hit"
        assert payload == {"k": [1, 2, {"v": True}]}

    def test_save_into_unwritable_directory_returns_false(self, tmp_path):
        blocked = os.path.join(str(tmp_path), "file-not-dir")
        with open(blocked, "w") as handle:
            handle.write("x")
        store = WarmStore(
            StoreConfig(path=os.path.join(blocked, "nested")),
            build_counter_model(),
            StcgConfig(budget_s=1.0),
            scope="unit",
        )
        assert store.save({"k": 1}) is False

    def test_no_tmp_litter_after_save(self, tmp_path):
        store = WarmStore(
            StoreConfig(path=str(tmp_path)),
            build_counter_model(),
            StcgConfig(budget_s=1.0),
            scope="unit",
        )
        store.save({"k": 1})
        assert all(".tmp." not in name for name in os.listdir(tmp_path))

    def test_scope_discriminates_keys(self, tmp_path):
        compiled = build_counter_model()
        config = StcgConfig(budget_s=1.0)
        store_config = StoreConfig(path=str(tmp_path))
        a = WarmStore(store_config, compiled, config, scope="STCG|seed=0")
        b = WarmStore(store_config, compiled, config, scope="Fuzz|seed=0")
        assert a.key != b.key
        assert a.path != b.path

    def test_schema_constant_is_versioned(self):
        assert STORE_SCHEMA.startswith("repro.store/")


class TestLRUOrderAfterRestore:
    def test_markers_restore_in_eviction_order(self):
        """A restore must reproduce the donor's LRU order: the entry the
        donor would evict next is the entry the restored cache evicts
        next."""
        donor = SolveCache("M", compiled_capacity=8)
        order = [("fp%d" % i, ("branch", i)) for i in range(4)]
        for fingerprint, key in order:
            donor.compiled_constraint(fingerprint, key, lambda: None)
        folds = donor.export_folds()

        restored = SolveCache("M", compiled_capacity=4)
        restored.restore_folds(folds)
        assert [k for k, _ in restored.compiled.items()] == [
            (fp, key) for fp, key in order
        ]
        # One insert over capacity evicts the donor's oldest entry.
        restored.compiled.put(("fresh", ("branch", 99)), None)
        remaining = [k for k, _ in restored.compiled.items()]
        assert (order[0][0], order[0][1]) not in remaining
        assert (order[1][0], order[1][1]) in remaining


class TestSnapshotFold:
    """CPUTask-style runs retire most solve keys after one visit, so
    contraction snapshots rarely appear organically — exercise the fold
    synthetically."""

    def _snapshot_folds(self):
        from repro.solver.interval import Interval

        donor = SolveCache("M")
        donor._restored_contraction[("fp0", ("branch", 1))] = (
            True,
            {"x": Interval(0.0, 4.0), "y": Interval(-1.0, 1.0)},
        )
        return donor.export_folds()

    def test_snapshots_round_trip(self):
        folds = self._snapshot_folds()
        assert len(folds["snapshots"]) == 1
        restored = SolveCache("M")
        counts = restored.restore_folds(folds)
        assert counts["snapshots"] == 1
        (feasible, snapshot) = restored._restored_contraction[
            ("fp0", ("branch", 1))
        ]
        assert feasible is True
        assert snapshot["x"].lo == 0.0 and snapshot["x"].hi == 4.0

    def test_unconsumed_snapshots_carry_forward(self):
        """export → restore → export again must not drop a snapshot the
        intermediate run never consumed."""
        folds = self._snapshot_folds()
        middle = SolveCache("M")
        middle.restore_folds(folds)
        again = middle.export_folds()
        assert len(again["snapshots"]) == 1

    def test_verdicts_not_restored_when_disabled(self):
        donor = SolveCache("M")
        donor.mark_dead("fp", ("branch", 1), counts_failure=True)
        folds = donor.export_folds()
        restored = SolveCache("M", verdicts=False)
        counts = restored.restore_folds(folds)
        assert counts["verdicts"] == 0
        assert restored.dead_verdict("fp", ("branch", 1)) is None
