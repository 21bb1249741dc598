"""Observational transparency of the solve caches.

The central contract of ``repro.cache``: with a fixed seed, generation
results are **bit-identical** with the caches on, off, or pre-warmed.
The caches may only change how much work is done, never what is
produced.  The off/bounded variants are reached the way a caller would
build them: a ``SolveCache`` with explicit capacities handed to the
generator.  The state-tree dedup and the per-target scan cursor are
checked against the naive full scan of :mod:`tests.core.reference_scan`.
"""

import pytest

from repro.cache import SolveCache
from repro.cache.solve import (
    DEFAULT_COMPILED_CAPACITY,
    DEFAULT_ENCODING_CAPACITY,
)
from repro.core import StcgConfig, StcgGenerator

from tests.conftest import build_counter_model, build_queue_model
from tests.core.reference_scan import use_reference_scan

BUDGET = 10.0


def run(compiled, *, cache=None, **overrides):
    defaults = dict(budget_s=BUDGET, seed=7)
    defaults.update(overrides)
    generator = StcgGenerator(
        compiled, StcgConfig(**defaults), cache=cache
    )
    return generator, generator.run()


def run_bounded(compiled, **bounds):
    """``run`` with a private cache built from ``bounds``
    (``encoding_capacity``, ``compiled_capacity``, ``verdicts``)."""
    return run(compiled, cache=SolveCache(compiled.name, **bounds))


def assert_identical(a, b, *, compare_stats=True):
    """Two GenerationResults are bit-identical where determinism demands."""
    assert [case.inputs for case in a.suite] == [
        case.inputs for case in b.suite
    ]
    assert [case.origin for case in a.suite] == [
        case.origin for case in b.suite
    ]
    assert (a.decision, a.condition, a.mcdc) == (
        b.decision, b.condition, b.mcdc,
    )
    if compare_stats:
        assert a.stats == b.stats


@pytest.mark.parametrize("build", [build_counter_model, build_queue_model])
class TestCacheOnVsOff:
    def test_disabling_both_caches_changes_nothing(self, build):
        _, with_caches = run(build())
        _, without = run_bounded(
            build(), encoding_capacity=0, verdicts=False
        )
        assert_identical(with_caches, without)

    def test_tiny_encoding_cache_changes_nothing(self, build):
        # Constant eviction pressure: every rebuild must be deterministic.
        _, roomy = run(build())
        generator, tiny = run_bounded(build(), encoding_capacity=1)
        assert generator.cache.encodings.evictions > 0
        assert_identical(roomy, tiny)

    def test_tiny_compiled_cache_changes_nothing(self, build):
        # Compiled-bundle eviction (and the first-visit markers with it)
        # only changes when the solver kernel compiles, never results.
        _, roomy = run(build())
        _, tiny = run_bounded(build(), compiled_capacity=1)
        assert_identical(roomy, tiny)

    def test_dedup_off_changes_nothing(self, build, monkeypatch):
        """The cursor scan over canonical nodes equals the naive scan of
        every node with per-fingerprint tried sets."""
        _, deduped = run(build())
        use_reference_scan(monkeypatch)
        _, full_scan = run(build())
        assert_identical(deduped, full_scan)

    def test_everything_off_matches_everything_on(self, build, monkeypatch):
        _, on = run(build())
        use_reference_scan(monkeypatch)
        _, off = run_bounded(
            build(),
            encoding_capacity=0,
            compiled_capacity=0,
            verdicts=False,
        )
        assert_identical(on, off)


class TestWarmCacheTransparency:
    def test_shared_cache_skips_work_but_not_results(self):
        """A generator running against a pre-warmed cache must produce the
        same suite as a cold one — while provably skipping solver calls."""
        compiled = build_queue_model()
        shared = SolveCache(compiled.name)
        _, cold = run(compiled, cache=shared)
        assert shared.verdict_entries > 0, (
            "queue model should produce deterministic UNSAT/const-false "
            "verdicts to cache"
        )
        warm_generator, warm = run(compiled, cache=shared)
        assert warm_generator.stats["verdict_skips"] > 0
        assert_identical(cold, warm, compare_stats=False)
        # The warm run did strictly less solver work.
        assert (
            warm.stats["solver_calls"] + warm.stats["const_false_skips"]
            < cold.stats["solver_calls"] + cold.stats["const_false_skips"]
        )
        # ... and what it skipped is exactly what it remembered.
        assert shared.verdict_hits == warm.stats["verdict_skips"]

    def test_warm_encoding_cache_hits(self):
        compiled = build_counter_model()
        shared = SolveCache(compiled.name)
        run(compiled, cache=shared)
        misses_after_cold = shared.stats()["encoding_misses"]
        run(compiled, cache=shared)
        stats = shared.stats()
        assert stats["encoding_hits"] > 0
        # The warm run re-encodes only states the cold run never reached.
        assert stats["encoding_misses"] <= 2 * misses_after_cold


class TestGeneratorCacheWiring:
    def test_default_cache_has_default_bounds(self):
        generator = StcgGenerator(
            build_counter_model(), StcgConfig(budget_s=1.0)
        )
        assert generator.cache.encodings.capacity == \
            DEFAULT_ENCODING_CAPACITY == 512
        assert generator.cache.compiled.capacity == \
            DEFAULT_COMPILED_CAPACITY == 256
        assert generator.cache.verdicts_enabled

    def test_trace_counters_carry_cache_stats(self):
        compiled = build_counter_model()
        generator, result = run(compiled, trace=True)
        cache_section = result.trace_data["cache"]
        for key in (
            "encoding_hits", "encoding_misses", "encoding_evictions",
            "verdict_hits", "verdict_entries", "verdict_skips",
            "dedup_links", "unique_states",
        ):
            assert key in cache_section
        assert cache_section["unique_states"] == generator.tree.unique_states()
        counters = result.metrics["counters"]
        assert counters["cache.encoding_misses"] == \
            cache_section["encoding_misses"] > 0
        assert counters["cache.dedup_links"] == generator.tree.dedup_links

    def test_dedup_links_occur_on_state_revisits(self):
        compiled = build_queue_model()
        generator, _ = run(compiled)
        assert generator.tree.dedup_links > 0
        assert generator.tree.unique_states() < len(generator.tree)

    def test_invalid_cache_size_rejected(self):
        with pytest.raises(ValueError, match="capacity"):
            SolveCache("M", encoding_capacity=-1)
        with pytest.raises(ValueError, match="capacity"):
            SolveCache("M", compiled_capacity=-1)
