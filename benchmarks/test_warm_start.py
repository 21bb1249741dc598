"""Bench: persistent warm-start store speedup on repeated cells.

The cross-*process* analogue of ``test_cache_speedup``: instead of a
shared in-memory :class:`~repro.cache.SolveCache`, the second run warms
up from the on-disk store (:mod:`repro.store`) — the way a re-run of a
CI smoke job, a nightly table3, or a repeated experiment actually
replays.  End-to-end means end-to-end: the warm timing includes reading
and validating the document, decoding the folds, and the (skipped)
save; the cold timing includes the initial save.

Guarantees asserted, matching the acceptance bar:

* median cold / median warm >= ``MIN_SPEEDUP`` over ``RUNS`` runs per
  side (CI gate 2x, reported in the artifact against the 3x target,
  with each side's quartile spread).  The two sides alternate which
  runs first, so a host that slows down mid-test slows both alike;
  medians keep one slow run from moving the ratio,
* warm and cold runs produce bit-identical suites at the fixed seed,
* the warm run actually hit the store (``store_hits``) and reached the
  fixed point (``store_writes == 0``).

The ``test_repeated_cell_{cold,warm}_store`` pair records both timings
with pytest-benchmark so CI can gate regressions against the committed
``BENCH_baseline.json``.
"""

import shutil
import statistics
import tempfile
import time

from repro.core import StcgConfig, StcgGenerator
from repro.core.config import StoreConfig
from repro.models.registry import get_benchmark

#: A cap, not a target: both cells reach full coverage and stop early.
BUDGET_S = 6.0
SEED = 7
#: CI gate for the end-to-end store speedup; the issue's target is 3x,
#: which an idle machine clears with margin — the gate leaves headroom
#: for loaded CI workers.
MIN_SPEEDUP = 2.0
TARGET_SPEEDUP = 3.0
#: Timed runs per side; the gate compares medians.
RUNS = 9


def _run_cell(model_name, store_dir):
    compiled = get_benchmark(model_name).build()
    config = StcgConfig(
        budget_s=BUDGET_S, seed=SEED, store=StoreConfig(path=store_dir)
    )
    generator = StcgGenerator(compiled, config)
    return generator.run(), generator.stats


def _cold_run(model_name):
    """One fully cold run in a throwaway store (miss + export + save)."""
    store_dir = tempfile.mkdtemp(prefix="repro-store-bench-")
    try:
        return _run_cell(model_name, store_dir)
    finally:
        shutil.rmtree(store_dir, ignore_errors=True)


def test_warm_start_speedup(tmp_path, artifact):
    """Warm median >= MIN_SPEEDUP x faster end-to-end, suites identical."""
    store_dir = str(tmp_path / "store")
    _run_cell("CPUTask", store_dir)  # populate the store once

    sides = [
        ("cold", lambda: _cold_run("CPUTask")),
        ("warm", lambda: _run_cell("CPUTask", store_dir)),
    ]
    times = {"cold": [], "warm": []}
    outcomes = {}
    for index in range(RUNS):
        # Alternate which side runs first in each pair.
        for side, run in sides if index % 2 == 0 else sides[::-1]:
            started = time.perf_counter()
            outcomes[side] = run()
            times[side].append(time.perf_counter() - started)
    cold_result, _ = outcomes["cold"]
    warm_result, warm_stats = outcomes["warm"]

    # Transparency first: speed means nothing if the results moved.
    assert [c.inputs for c in cold_result.suite] == [
        c.inputs for c in warm_result.suite
    ]
    assert cold_result.decision == warm_result.decision == 1.0
    assert warm_stats["store_hits"] == 1
    assert warm_stats["restored_verdicts"] > 0
    assert warm_stats["store_writes"] == 0  # fixed point: save skipped

    cold_q1, cold_median, cold_q3 = statistics.quantiles(times["cold"], n=4)
    warm_q1, warm_median, warm_q3 = statistics.quantiles(times["warm"], n=4)
    speedup = cold_median / warm_median
    artifact(
        "warm_start_speedup.txt",
        "repeated CPUTask cell against the on-disk warm-start store\n"
        f"  cold median: {cold_median * 1000:.1f} ms over {RUNS} runs, "
        f"quartiles {cold_q1 * 1000:.1f}-{cold_q3 * 1000:.1f} ms "
        "(miss + solve + save)\n"
        f"  warm median: {warm_median * 1000:.1f} ms over {RUNS} runs, "
        f"quartiles {warm_q1 * 1000:.1f}-{warm_q3 * 1000:.1f} ms "
        "(load + restore + solve)\n"
        f"  speedup:     {speedup:.2f}x of medians (gate: "
        f"{MIN_SPEEDUP:.1f}x, target: {TARGET_SPEEDUP:.1f}x)\n"
        f"  restored:    {warm_stats['restored_verdicts']} verdicts, "
        f"{warm_stats['restored_markers']} markers\n",
    )
    assert speedup >= MIN_SPEEDUP, (
        f"warm-start speedup {speedup:.2f}x below the "
        f"{MIN_SPEEDUP:.1f}x CI gate (cold median {cold_median:.3f}s, "
        f"warm median {warm_median:.3f}s)"
    )


def test_warm_start_tcp_cell(tmp_path):
    """The store also round-trips the heavier TCP cell bit-identically.

    TCP does not saturate inside the budget, so the pin needs every
    clock out of the way: the generator budget moves to an injected
    counting clock (reads happen at the same logical points warm and
    cold), and the solver's *per-call* wall-clock cutoff is raised so a
    loaded machine cannot time one run's solve out and not the
    other's.
    """
    from repro.solver.engine import SolverConfig

    def counting_clock():
        now = [0.0]

        def clock():
            now[0] += 0.001
            return now[0]

        return clock

    def run(store_dir):
        compiled = get_benchmark("TCP").build()
        config = StcgConfig(
            budget_s=BUDGET_S,
            seed=SEED,
            store=StoreConfig(path=store_dir),
            solver=SolverConfig(
                max_samples=48, avm_evaluations=700, time_budget_s=60.0
            ),
        )
        generator = StcgGenerator(compiled, config, clock=counting_clock())
        return generator.run(), generator.stats

    store_dir = str(tmp_path / "store")
    cold_result, _ = run(store_dir)
    warm_result, warm_stats = run(store_dir)
    assert warm_stats["store_hits"] == 1
    assert [c.inputs for c in cold_result.suite] == [
        c.inputs for c in warm_result.suite
    ]


def test_repeated_cell_cold_store(benchmark):
    """Baseline: every run misses, solves from scratch, and saves."""
    result, _ = benchmark.pedantic(
        lambda: _cold_run("CPUTask"),
        rounds=3,
        iterations=1,
        warmup_rounds=1,
    )
    assert result.decision == 1.0


def test_repeated_cell_warm_store(benchmark, tmp_path):
    """The same cell warm-started from a pre-populated store."""
    store_dir = str(tmp_path / "store")
    _run_cell("CPUTask", store_dir)

    def warm():
        return _run_cell("CPUTask", store_dir)

    result, stats = benchmark.pedantic(
        warm, rounds=3, iterations=1, warmup_rounds=1
    )
    assert result.decision == 1.0
    assert stats["store_hits"] == 1
