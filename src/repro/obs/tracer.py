"""Tracing primitives: the :class:`Tracer` protocol and its implementations.

Two hooks cover everything the generators need:

* ``span(name, **tags)`` — a context manager timing one phase of work
  (solve scan, one solver call, one simulation step, ...);
* ``sample(series, t, value)`` — one point of a time series (state-tree
  growth, queue depths, ...).

Counters are not a tracer concern: every run counts its work in its own
accumulators and projects them into the ``repro.metrics/1`` registry
(:mod:`repro.metrics`), traced or not.

:data:`NULL_TRACER` implements both as no-ops sharing a single
stateless context manager, so instrumented code pays only an attribute
lookup and a call when tracing is off — the overhead budget for a fully
disabled tracer is <3% of generator wall-clock.  :class:`PhaseProfiler`
aggregates into per-phase totals and decimated series, so its memory stays
bounded no matter how long the run is.
"""

from __future__ import annotations

import time
from typing import Callable, ContextManager, Dict, List, Protocol, Tuple

__all__ = [
    "NULL_TRACER",
    "NullTracer",
    "PhaseProfiler",
    "Tracer",
]


class Tracer(Protocol):
    """What instrumented code sees; see module docstring for the contract.

    ``enabled`` lets hot paths skip even the cheap no-op call::

        if tracer.enabled:
            with tracer.span("sim_step"):
                ...
    """

    enabled: bool

    def span(self, name: str, **tags: object) -> ContextManager: ...

    def sample(self, series: str, t: float, value: float) -> None: ...


class _NullSpan:
    """A single shared, stateless no-op context manager."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The default tracer: every hook is a no-op."""

    __slots__ = ()
    enabled = False

    def span(self, name: str, **tags: object) -> _NullSpan:
        return _NULL_SPAN

    def sample(self, series: str, t: float, value: float) -> None:
        pass


#: Shared no-op instance; instrumented classes default to this.
NULL_TRACER = NullTracer()


class _RecordingSpan:
    """Context manager that reports its duration back to its tracer."""

    __slots__ = ("_tracer", "name", "tags", "_t0")

    def __init__(self, tracer, name: str, tags: Dict[str, object]):
        self._tracer = tracer
        self.name = name
        self.tags = tags

    def __enter__(self) -> "_RecordingSpan":
        self._t0 = self._tracer._clock()
        return self

    def __exit__(self, *exc_info) -> bool:
        self._tracer._finish(self.name, self.tags, self._t0,
                             self._tracer._clock())
        return False


class PhaseProfiler:
    """Aggregating tracer with bounded memory.

    Spans collapse into per-phase ``{count, seconds}`` totals; spans
    carrying a ``target`` tag additionally accumulate per-target time (the
    "slowest solver targets" table).  Series are decimated in place once
    they exceed ``max_series_points``, halving their resolution instead of
    growing without bound — sampling-friendly for arbitrarily long runs.
    """

    enabled = True

    def __init__(
        self,
        clock: Callable[[], float] = time.monotonic,
        max_series_points: int = 512,
    ):
        self._clock = clock
        self.max_series_points = max(8, max_series_points)
        self._totals: Dict[str, List[float]] = {}  # name -> [count, seconds]
        self._targets: Dict[str, List[float]] = {}  # target -> [count, seconds]
        self.series: Dict[str, List[Tuple[float, float]]] = {}

    def span(self, name: str, **tags: object) -> _RecordingSpan:
        return _RecordingSpan(self, name, tags)

    def _finish(self, name, tags, start, end) -> None:
        seconds = max(0.0, end - start)
        agg = self._totals.get(name)
        if agg is None:
            agg = self._totals[name] = [0, 0.0]
        agg[0] += 1
        agg[1] += seconds
        target = tags.get("target")
        if target is not None:
            tagg = self._targets.get(str(target))
            if tagg is None:
                tagg = self._targets[str(target)] = [0, 0.0]
            tagg[0] += 1
            tagg[1] += seconds

    def sample(self, series: str, t: float, value: float) -> None:
        points = self.series.setdefault(series, [])
        points.append((t, value))
        if len(points) > self.max_series_points:
            # Keep the first and last point, halve the middle.
            points[:] = points[::2] + points[-1:]

    # -- summaries -----------------------------------------------------

    def phase_totals(self) -> Dict[str, Dict[str, float]]:
        return {
            name: {"count": int(count), "seconds": round(seconds, 6)}
            for name, (count, seconds) in sorted(self._totals.items())
        }

    def target_totals(self) -> List[Dict[str, object]]:
        """Per-``target``-tag time aggregation, slowest first."""
        return [
            {"target": name, "calls": int(count), "seconds": round(seconds, 6)}
            for name, (count, seconds) in sorted(
                self._targets.items(), key=lambda item: -item[1][1]
            )
        ]

    def summary(self) -> Dict[str, object]:
        """The ``{phase_totals, targets, series}`` digest."""
        return {
            "phase_totals": self.phase_totals(),
            "targets": self.target_totals(),
            "series": {
                name: [[round(t, 6), value] for t, value in points]
                for name, points in self.series.items()
            },
        }
