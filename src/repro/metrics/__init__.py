"""Unified experiment metrics: a deterministic, schema-stable registry.

The registry (:class:`MetricsRegistry`) is the single counter namespace
of every tool: :func:`declare_instruments` declares it and
:func:`populate_registry` projects a finished run's accumulators into it,
giving each run's ``GenerationResult.metrics`` snapshot.  Snapshots are
JSON documents tagged ``repro.metrics/1``; :func:`merge_snapshots` folds
per-worker registries together commutatively so workers=1 and workers=N
aggregate identically, and :func:`delta_snapshots` supports before/after
analysis.  :data:`RATES` / :func:`derived_rates` are the derived rates
every consumer shares.
"""

from repro.metrics.instruments import (
    CASE_LENGTH_BOUNDS,
    RATES,
    declare_instruments,
    derived_rates,
    format_rate,
    populate_registry,
)
from repro.metrics.registry import (
    Counter,
    Gauge,
    GAUGE_MODES,
    Histogram,
    METRICS_SCHEMA,
    MetricsRegistry,
    delta_snapshots,
    empty_snapshot,
    fold_snapshots,
    merge_snapshots,
)

__all__ = [
    "CASE_LENGTH_BOUNDS",
    "Counter",
    "GAUGE_MODES",
    "Gauge",
    "Histogram",
    "METRICS_SCHEMA",
    "MetricsRegistry",
    "RATES",
    "declare_instruments",
    "delta_snapshots",
    "derived_rates",
    "empty_snapshot",
    "fold_snapshots",
    "format_rate",
    "merge_snapshots",
    "populate_registry",
]
