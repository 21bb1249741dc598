"""Per-stage accounting for the solver pipeline.

:class:`~repro.solver.engine.SolverEngine` finishes every call with a fine
``stage`` tag (``"corner"``, ``"split-sample"``, ``"sample-timeout"``, ...)
and per-stage wall-clock segments.  This module folds those tags onto the
five canonical pipeline stages and accumulates, per stage:

* ``attempts`` — calls that *entered* the stage (spent time in it),
* ``finished`` — calls whose verdict was produced by the stage,
* ``wins``     — calls the stage finished with SAT,
* ``seconds``  — total wall-clock spent in the stage.

``sum(finished) == calls`` and ``sum(wins) == sat`` by construction, which
the test suite pins down.
"""

from __future__ import annotations

from typing import Dict, Optional

__all__ = ["CACHE_COUNTERS", "SOLVER_STAGES", "SolverStageMetrics",
           "canonical_stage", "merge_stage_dicts"]

#: The canonical pipeline stages, in execution order.
SOLVER_STAGES = ("fold", "contract", "sample", "split", "avm")

#: Canonical names of the solve-cache counters, as reported by
#: :meth:`repro.cache.solve.SolveCache.stats` and projected into the
#: ``cache.*`` metrics instruments.
CACHE_COUNTERS = (
    "encoding_hits",
    "encoding_misses",
    "encoding_evictions",
    "compiled_hits",
    "compiled_misses",
    "compiled_evictions",
    "verdict_hits",
    "verdict_entries",
)

_CANONICAL = {
    "fold": "fold",
    "contract": "contract",
    "corner": "sample",
    "sample": "sample",
    "sample-timeout": "sample",
    "split": "split",
    "split-corner": "split",
    "split-sample": "split",
    "avm": "avm",
}


def canonical_stage(tag: str) -> str:
    """Map a fine ``SolveStats.stage`` tag onto its pipeline stage."""
    return _CANONICAL.get(tag, tag or "unknown")


class SolverStageMetrics:
    """Accumulates stage counters over the lifetime of one engine."""

    __slots__ = ("stages", "calls", "by_status", "skips")

    def __init__(self):
        self.stages: Dict[str, Dict[str, float]] = {}
        self.calls = 0
        self.by_status: Dict[str, int] = {}
        #: Solver calls avoided entirely, by skip kind (e.g. ``"verdict"``
        #: for verdict-cache hits).  Kept out of :meth:`as_dict` so the
        #: per-stage shape stays mergeable by :func:`merge_stage_dicts`.
        self.skips: Dict[str, int] = {}

    def _stage(self, name: str) -> Dict[str, float]:
        stat = self.stages.get(name)
        if stat is None:
            stat = self.stages[name] = {
                "attempts": 0, "finished": 0, "wins": 0, "seconds": 0.0,
            }
        return stat

    def note_skip(self, kind: str) -> None:
        """Count a solver call that a cache made unnecessary."""
        self.skips[kind] = self.skips.get(kind, 0) + 1

    def record(self, stats) -> None:
        """Fold one finished :class:`~repro.solver.engine.SolveStats` in."""
        self.calls += 1
        status = stats.status.value
        self.by_status[status] = self.by_status.get(status, 0) + 1
        for tag, seconds in stats.stage_times.items():
            stat = self._stage(canonical_stage(tag))
            stat["attempts"] += 1
            stat["seconds"] += seconds
        terminal = self._stage(canonical_stage(stats.stage))
        terminal["finished"] += 1
        if status == "sat":
            terminal["wins"] += 1

    def as_dict(self) -> Dict[str, Dict[str, float]]:
        """JSON-ready snapshot, seconds rounded, stages in pipeline order."""
        ordered = [s for s in SOLVER_STAGES if s in self.stages]
        ordered += [s for s in sorted(self.stages) if s not in SOLVER_STAGES]
        return {
            name: {
                "attempts": int(self.stages[name]["attempts"]),
                "finished": int(self.stages[name]["finished"]),
                "wins": int(self.stages[name]["wins"]),
                "seconds": round(self.stages[name]["seconds"], 6),
            }
            for name in ordered
        }


def merge_stage_dicts(
    into: Dict[str, Dict[str, float]],
    other: Optional[Dict[str, Dict[str, float]]],
) -> Dict[str, Dict[str, float]]:
    """Sum one ``as_dict()``-shaped mapping into another (in place)."""
    for stage, stat in (other or {}).items():
        agg = into.setdefault(
            stage, {"attempts": 0, "finished": 0, "wins": 0, "seconds": 0.0}
        )
        for key in ("attempts", "finished", "wins"):
            agg[key] = int(agg[key]) + int(stat.get(key, 0))
        agg["seconds"] = round(
            float(agg["seconds"]) + float(stat.get("seconds", 0.0)), 6
        )
    return into
