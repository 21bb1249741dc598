"""The canonical instrument namespace and the one run-end projection.

Every tool (STCG, Fuzz, Hybrid, SimCoTest, SLDV) counts where the work
happens — the generator's ``stats`` dict, the merged
:class:`~repro.obs.stages.SolverStageMetrics`, ``SolveCache.stats()``,
``Simulator.kernel_stats()``, :class:`~repro.solverc.compiler.SolvercStats`
— and :func:`populate_registry` projects those accumulators into a
registry once, at run end.  The snapshot lands in
``GenerationResult.metrics`` and is the only path counters take out of a
run: one ``metrics`` event per cell, one folded manifest section, one
generic ``repro report`` section.

:func:`declare_instruments` is the single declaration of the namespace:

* ``run.*``      — counters every tool has (solver calls and verdicts,
  simulated steps, whole-sequence simulations) plus ``run.cells``;
* ``stcg.*``     — the state-aware generator's own counters, the
  ``stcg.tree_nodes`` max-gauge and the ``stcg.case_length`` histogram;
* ``solver.stage.<stage>.*`` — attempts/finished/wins counters and a
  ``seconds`` sum-gauge per canonical pipeline stage;
* ``cache.*``    — solve-cache traffic, verdict skips, dedup links and the
  ``cache.unique_states`` max-gauge;
* ``kernel.*`` / ``solverc.*`` — compiled-vs-fallback traffic with an
  ``enabled`` max-gauge (0/1) per kernel; every sim-kernel fallback class
  adds a ``kernel.fallback.<Class>`` counter (cells it fell back in);
* ``fuzz.*``     — campaign counters, the ``fuzz.corpus_size`` max-gauge
  and the ``fuzz.seconds`` wall-clock sum-gauge;
* ``store.*``    — warm-start store traffic and restored-fold counts.

``fuzz.cells`` / ``store.cells`` count the runs that carried a campaign /
a store, so folded snapshots still say how many cells contributed.

:data:`RATES` is the one table of derived rates (hit rates, fallback
rates, stage win rates, fuzz throughput) that ``repro report`` and
``repro diff`` both read.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Tuple

from repro.metrics.registry import MetricsRegistry
from repro.obs.stages import CACHE_COUNTERS, SOLVER_STAGES
from repro.solverc.compiler import SolvercStats

__all__ = [
    "CASE_LENGTH_BOUNDS",
    "RATES",
    "declare_instruments",
    "derived_rates",
    "format_rate",
    "populate_registry",
]

#: Fixed bucket bounds of the ``stcg.case_length`` histogram (steps per
#: synthesized test case).  Declared here so every worker shares them and
#: merges stay well-defined.
CASE_LENGTH_BOUNDS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0)

#: Tool-neutral ``stats`` keys, mirrored as ``run.*`` counters.
_RUN_COUNTERS = (
    "solver_calls",
    "sat",
    "unsat",
    "unknown",
    "steps_executed",
    "simulations",
)

#: Generator ``stats`` keys mirrored as ``stcg.*`` counters.
_STCG_COUNTERS = (
    "random_sequences",
    "const_false_skips",
    "warmup_steps",
)

#: ``fuzz_<key>`` stats mirrored as ``fuzz.<key>`` counters.
_FUZZ_COUNTERS = (
    "executions",
    "retained",
    "rejected",
    "seed_entries",
    "steps",
    "tree_nodes",
    "targets",
    "targets_covered",
)

#: Store stats keys; the ``store_`` prefix is dropped in the counter name.
_STORE_COUNTERS = (
    "store_reads",
    "store_hits",
    "store_misses",
    "store_rejected",
    "store_writes",
    "restored_verdicts",
    "restored_markers",
    "restored_snapshots",
    "corpus_seeds",
)

#: Generator-side cache counters carried next to ``SolveCache.stats()``.
_CACHE_EXTRA = ("verdict_skips", "dedup_links")

#: Per-stage fields kept as counters (``seconds`` is a sum-gauge).
_STAGE_COUNTER_FIELDS = ("attempts", "finished", "wins")

#: Derived rates: (name, numerator instruments, denominator instruments).
#: Each side sums its instruments' folded values (counters, or gauges
#: such as ``fuzz.seconds``); a rate whose denominator is zero is None.
RATES: Tuple[Tuple[str, Tuple[str, ...], Tuple[str, ...]], ...] = (
    (
        "cache_hit",
        ("cache.encoding_hits", "cache.compiled_hits"),
        ("cache.encoding_hits", "cache.encoding_misses",
         "cache.compiled_hits", "cache.compiled_misses"),
    ),
    (
        "kernel_fallback",
        ("kernel.fallback_blocks",),
        ("kernel.fallback_blocks", "kernel.specialized_blocks"),
    ),
    (
        # Failed objective compilations (whole constraint or split case)
        # per attempted one: in [0, 1], 0 when every objective compiled.
        "solverc_fallback",
        ("solverc.compile_fallbacks",),
        ("solverc.objective_compiles",),
    ),
    ("fuzz_execs_per_s", ("fuzz.executions",), ("fuzz.seconds",)),
) + tuple(
    (
        f"{stage}_win",
        (f"solver.stage.{stage}.wins",),
        (f"solver.stage.{stage}.finished",),
    )
    for stage in SOLVER_STAGES
)


def declare_instruments(registry: MetricsRegistry) -> MetricsRegistry:
    """Declare every canonical instrument up front (schema stability).

    A run that never touches a subsystem still snapshots the same key set
    as one that does — zeros, not absences — and every tool declares the
    same set.
    """
    registry.counter("run.cells")
    for key in _RUN_COUNTERS:
        registry.counter(f"run.{key}")
    for key in _STCG_COUNTERS:
        registry.counter(f"stcg.{key}")
    registry.gauge("stcg.tree_nodes", mode="max")
    registry.histogram("stcg.case_length", CASE_LENGTH_BOUNDS)
    for stage in SOLVER_STAGES:
        for field in _STAGE_COUNTER_FIELDS:
            registry.counter(f"solver.stage.{stage}.{field}")
        registry.gauge(f"solver.stage.{stage}.seconds", mode="sum")
    for key in CACHE_COUNTERS + _CACHE_EXTRA:
        registry.counter(f"cache.{key}")
    registry.gauge("cache.unique_states", mode="max")
    registry.gauge("kernel.enabled", mode="max")
    registry.counter("kernel.specialized_blocks")
    registry.counter("kernel.fallback_blocks")
    registry.counter("kernel.steps")
    registry.gauge("solverc.enabled", mode="max")
    for key in SolvercStats.KEYS:
        registry.counter(f"solverc.{key}")
    registry.counter("fuzz.cells")
    for key in _FUZZ_COUNTERS:
        registry.counter(f"fuzz.{key}")
    registry.gauge("fuzz.corpus_size", mode="max")
    registry.gauge("fuzz.seconds", mode="sum")
    registry.counter("store.cells")
    for key in _STORE_COUNTERS:
        registry.counter(f"store.{key.removeprefix('store_')}")
    return registry


def populate_registry(
    registry: MetricsRegistry,
    *,
    stats: Mapping[str, object],
    solver_stages: Optional[Dict[str, Dict[str, float]]] = None,
    cache: Optional[Mapping[str, object]] = None,
    kernel: Optional[Mapping[str, object]] = None,
    solverc: Optional[Mapping[str, object]] = None,
) -> MetricsRegistry:
    """Project one finished run's accumulators into ``registry``.

    The arguments are the accumulators' own shapes: the generator's
    ``stats`` (``fuzz_*`` / ``store_*`` keys included when present),
    merged ``SolverStageMetrics.as_dict()`` mappings, ``SolveCache.stats()``
    plus the generator's ``verdict_skips`` / ``dedup_links`` /
    ``unique_states``, ``Simulator.kernel_stats()`` (None when the sim
    kernel is off) and ``SolvercStats.as_dict()`` with an ``enabled`` key.
    Subsystems a tool does not have stay at their declared zeros.  Call
    once per run: counters only ever increase.
    """
    declare_instruments(registry)
    registry.counter("run.cells").inc(1)
    for key in _RUN_COUNTERS:
        registry.counter(f"run.{key}").inc(int(stats.get(key, 0)))
    for key in _STCG_COUNTERS:
        registry.counter(f"stcg.{key}").inc(int(stats.get(key, 0)))
    registry.gauge("stcg.tree_nodes", mode="max").record(
        float(stats.get("tree_nodes", 0))
    )
    for stage, stat in (solver_stages or {}).items():
        for field in _STAGE_COUNTER_FIELDS:
            registry.counter(f"solver.stage.{stage}.{field}").inc(
                int(stat.get(field, 0))
            )
        registry.gauge(f"solver.stage.{stage}.seconds", mode="sum").record(
            float(stat.get("seconds", 0.0))
        )
    cache = cache or {}
    for key in CACHE_COUNTERS + _CACHE_EXTRA:
        registry.counter(f"cache.{key}").inc(int(cache.get(key, 0)))
    registry.gauge("cache.unique_states", mode="max").record(
        float(cache.get("unique_states", 0))
    )
    registry.gauge("kernel.enabled", mode="max").record(
        0.0 if kernel is None else 1.0
    )
    if kernel is not None:
        registry.counter("kernel.specialized_blocks").inc(
            int(kernel.get("specialized_blocks", 0))
        )
        registry.counter("kernel.fallback_blocks").inc(
            int(kernel.get("fallback_blocks", 0))
        )
        registry.counter("kernel.steps").inc(int(kernel.get("kernel_steps", 0)))
        for name in kernel.get("fallback_classes") or ():
            registry.counter(f"kernel.fallback.{name}").inc(1)
    solverc = solverc or {}
    registry.gauge("solverc.enabled", mode="max").record(
        1.0 if solverc.get("enabled") else 0.0
    )
    for key in SolvercStats.KEYS:
        registry.counter(f"solverc.{key}").inc(int(solverc.get(key, 0)))
    if "fuzz_executions" in stats:
        registry.counter("fuzz.cells").inc(1)
        for key in _FUZZ_COUNTERS:
            registry.counter(f"fuzz.{key}").inc(int(stats.get(f"fuzz_{key}", 0)))
        registry.gauge("fuzz.corpus_size", mode="max").record(
            float(stats.get("fuzz_corpus_size", 0))
        )
        registry.gauge("fuzz.seconds", mode="sum").record(
            float(stats.get("fuzz_wall_s", 0.0))
        )
    if "store_reads" in stats:
        registry.counter("store.cells").inc(1)
        for key in _STORE_COUNTERS:
            registry.counter(f"store.{key.removeprefix('store_')}").inc(
                int(stats.get(key, 0))
            )
    return registry


def _value(snapshot: Mapping[str, object], name: str) -> float:
    """An instrument's folded value: a counter, or a gauge's value."""
    counters = snapshot.get("counters") or {}
    if name in counters:
        return float(counters[name])
    gauge = (snapshot.get("gauges") or {}).get(name) or {}
    return float(gauge.get("value") or 0.0)


def derived_rates(
    snapshot: Mapping[str, object]
) -> Dict[str, Optional[float]]:
    """Every :data:`RATES` entry over one (folded) snapshot."""
    rates: Dict[str, Optional[float]] = {}
    for name, numerator, denominator in RATES:
        below = sum(_value(snapshot, key) for key in denominator)
        above = sum(_value(snapshot, key) for key in numerator)
        rates[name] = (above / below) if below else None
    return rates


def format_rate(name: str, value: Optional[float]) -> str:
    """A rate for display: ``--`` when undefined, per-second or percent."""
    if value is None:
        return "--"
    if name.endswith("_per_s"):
        return f"{value:.0f}/s"
    return f"{value:.1%}"
