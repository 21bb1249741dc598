"""Structured run telemetry: a JSONL event stream plus a run manifest.

Every experiment emits a sequence of events — matrix/run lifecycle, one
record per finished cell (with the generator's ``stats`` and coverage),
per-test-case timeline points and recorded failures.  :class:`EventLog`
buffers them in memory and, when given a path, streams each event to disk
as one JSON line the moment it is emitted, so a crashed or killed run
still leaves a parseable log behind.

Event schema (``repro.events/1``) — every line is an object with:

* ``seq``   — 0-based monotonically increasing sequence number,
* ``t``     — seconds since the log was opened (monotonic clock),
* ``event`` — the kind, one of ``matrix_started``, ``cell_started``,
  ``cell_finished``, ``cell_failed``, ``timeline_point``, ``metrics``,
  ``matrix_finished``, ``run_started``, ``run_finished``,
* kind-specific payload fields (model, tool, repetition, seed, coverage
  numbers, solver ``stats``, failure ``kind``/``message``, ...).

Every finished cell — traced or not, whatever the tool — emits exactly
one ``metrics`` event (tagged ``schema: repro.metrics/1``) carrying the
run's registry snapshot, ``GenerationResult.metrics``.  It is the only
path counters take out of a run; :func:`emit_result` is the one per-cell
emitter the matrix executor and ``api.generate`` share.

Traced runs additionally emit the ``repro.trace/1`` kinds (each tagged
``schema: repro.trace/1``): ``phase_totals`` (per-cell phase time
breakdown), ``tree_growth`` (state-tree size samples) and ``span``
(per-target solver time aggregates).

Runs with the provenance ledger on additionally emit one ``provenance``
event per cell (tagged ``schema: repro.provenance/1``) carrying the
objective-level coverage snapshot; the manifest folds them per
(model, tool) across repetitions via
:func:`repro.provenance.merge_provenance`.

The manifest (``repro.run-manifest/2``) is a single JSON document derived
from the event stream: counts, per-(model, tool) coverage aggregates,
failures, the ``metrics`` snapshots folded into one (the only counter
aggregate), for traced runs ``phase_seconds``, and for provenance-bearing
runs the merged ``provenance`` section consumed by ``repro explain`` /
``repro dashboard``.
"""

from __future__ import annotations

import json
import threading
import time
from typing import Dict, IO, List, Optional

from repro.errors import ReproError
from repro.metrics import METRICS_SCHEMA, empty_snapshot, fold_snapshots
from repro.provenance import PROVENANCE_SCHEMA, merge_provenance

#: Version tag embedded in every stream and manifest.
EVENT_SCHEMA = "repro.events/1"
MANIFEST_SCHEMA = "repro.run-manifest/2"
#: Version tag carried by every deep-tracing event.
TRACE_SCHEMA = "repro.trace/1"

#: The deep-tracing event kinds (all tagged with :data:`TRACE_SCHEMA`).
TRACE_KINDS = ("span", "phase_totals", "tree_growth")

#: Solver targets forwarded per traced cell (slowest first); bounds the
#: number of ``span`` events a cell can contribute.
_MAX_TARGET_SPANS = 20


class EventLog:
    """An append-only event sink: in-memory list + optional JSONL stream.

    Use as a context manager (or call :meth:`close`) when writing to disk::

        with EventLog("run.jsonl") as events:
            events.emit("run_started", model="TCP", tool="STCG")
    """

    def __init__(self, path: Optional[str] = None):
        self.path = str(path) if path is not None else None
        self._events: List[Dict[str, object]] = []
        self._handle: Optional[IO[str]] = None
        self._t0 = time.monotonic()
        #: Serializes emission: the stall watchdog emits from its own
        #: thread while the executor emits from the main thread, and seq
        #: assignment + the JSONL write must stay atomic per event.
        self._lock = threading.Lock()
        if self.path is not None:
            self._handle = open(self.path, "w")
            self.emit("log_opened", schema=EVENT_SCHEMA)

    # -- emission ------------------------------------------------------

    def emit(self, kind: str, /, **payload: object) -> Dict[str, object]:
        """Record one event; returns the event dict (already serialized).

        Thread-safe: concurrent emitters get distinct ``seq`` numbers and
        whole, unintermixed JSONL lines.
        """
        with self._lock:
            event: Dict[str, object] = {
                "seq": len(self._events),
                "t": round(time.monotonic() - self._t0, 6),
                "event": kind,
            }
            event.update(payload)
            self._events.append(event)
            if self._handle is not None:
                self._handle.write(json.dumps(event, default=_jsonable) + "\n")
                self._handle.flush()
            return event

    # -- access --------------------------------------------------------

    @property
    def events(self) -> List[Dict[str, object]]:
        """All events emitted so far (the in-memory copy)."""
        return list(self._events)

    def of_kind(self, kind: str) -> List[Dict[str, object]]:
        return [e for e in self._events if e["event"] == kind]

    # -- manifest ------------------------------------------------------

    def manifest(self) -> Dict[str, object]:
        """Summarize the event stream into a single run-manifest document."""
        return build_manifest(self._events)

    def write_manifest(self, path: str) -> Dict[str, object]:
        """Render the manifest to ``path`` as pretty-printed JSON."""
        manifest = self.manifest()
        with open(path, "w") as handle:
            json.dump(manifest, handle, indent=2, default=_jsonable)
            handle.write("\n")
        return manifest

    # -- lifecycle -----------------------------------------------------

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "EventLog":
        return self

    def __exit__(self, *exc_info) -> bool:
        self.close()
        return False


def _cell_sort_key(event: Dict[str, object]):
    """Canonical ordering of per-cell events: identity, then stream seq.

    Under ``workers=N`` cell events land in *completion* order, which
    varies run to run; folding them in identity order makes every
    float-summing aggregate bit-identical to the ``workers=1`` stream
    (the seq tie-break only matters for duplicated identities, where it
    pins permutation-independence).
    """
    return (
        str(event.get("model", "")),
        str(event.get("tool", "")),
        str(event.get("repetition", "")),
        str(event.get("seq", "")).rjust(12, "0"),
    )


def build_manifest(events: List[Dict[str, object]]) -> Dict[str, object]:
    """Summarize an event stream into a single run-manifest document.

    Pure over its input, and *order-independent* over per-cell events: any
    permutation of the same events — in memory, read back from a JSONL
    file via :func:`read_events`, or interleaved by a multi-worker run —
    produces the bit-identical manifest.  Cell events are folded in a
    canonical (model, tool, repetition) order and floats are rounded once
    at the end, never per event.
    """

    def of_kind(kind: str) -> List[Dict[str, object]]:
        return sorted(
            (e for e in events if e.get("event") == kind),
            key=_cell_sort_key,
        )

    # Single runs (run_finished) aggregate exactly like matrix cells.
    cells_ok = sorted(
        of_kind("cell_finished") + of_kind("run_finished"),
        key=_cell_sort_key,
    )
    cells_failed = of_kind("cell_failed")
    coverage: Dict[str, Dict[str, Dict[str, object]]] = {}
    duration = 0.0
    for cell in cells_ok:
        per_tool = coverage.setdefault(str(cell["model"]), {})
        agg = per_tool.setdefault(
            str(cell["tool"]),
            {"decision": 0.0, "condition": 0.0, "mcdc": 0.0, "runs": 0},
        )
        for metric in ("decision", "condition", "mcdc"):
            agg[metric] = float(agg[metric]) + float(cell[metric])
        agg["runs"] = int(agg["runs"]) + 1
        duration += float(cell.get("duration_s", 0.0))
    for per_tool in coverage.values():
        for agg in per_tool.values():
            for metric in ("decision", "condition", "mcdc"):
                # Mean of a sorted sum — same addition order as
                # ToolOutcome (plan order), so the two match exactly.
                agg[metric] = float(agg[metric]) / int(agg["runs"])
    # Deep-tracing aggregates (repro.trace/1 events, when present).
    phase_seconds: Dict[str, float] = {}
    for event in of_kind("phase_totals"):
        for phase, stat in (event.get("phases") or {}).items():
            phase_seconds[phase] = (
                phase_seconds.get(phase, 0.0)
                + float((stat or {}).get("seconds", 0.0))
            )
    phase_seconds = {
        phase: round(seconds, 6)
        for phase, seconds in phase_seconds.items()
    }
    # The per-cell registry snapshots fold into one run-level snapshot —
    # the manifest's only counter aggregate; fold_snapshots re-sorts by
    # the identity key, so this too is independent of arrival order.
    metrics_events = of_kind("metrics")
    metrics: Dict[str, object] = {}
    if metrics_events:
        metrics = fold_snapshots([
            (_cell_sort_key(event), event.get("snapshot") or empty_snapshot())
            for event in metrics_events
        ])
    # Objective-level provenance: per-cell snapshots fold per (model,
    # tool) across repetitions.  of_kind already sorted the events by the
    # canonical cell key, so group membership order — and therefore the
    # merged document — is independent of arrival order.
    provenance: Dict[str, Dict[str, object]] = {}
    prov_groups: Dict[tuple, List[tuple]] = {}
    for event in of_kind("provenance"):
        key = (str(event.get("model", "")), str(event.get("tool", "")))
        prov_groups.setdefault(key, []).append(
            (event.get("repetition"), event.get("provenance") or {})
        )
    for (model, tool), snaps in prov_groups.items():
        provenance.setdefault(model, {})[tool] = merge_provenance(snaps)
    stalls = [
        {k: v for k, v in event.items() if k not in ("seq", "t", "event")}
        for event in of_kind("cell_stalled")
    ]
    matrix = of_kind("matrix_started")
    finished = of_kind("matrix_finished")
    return {
        "schema": MANIFEST_SCHEMA,
        "config": (
            {k: v for k, v in matrix[0].items()
             if k not in ("seq", "t", "event")}
            if matrix else {}
        ),
        "cells": len(cells_ok) + len(cells_failed),
        "ok": len(cells_ok),
        "failed": len(cells_failed),
        "wall_s": (
            float(finished[-1]["wall_s"]) if finished
            else (float(events[-1].get("t", 0.0)) if events else 0.0)
        ),
        "cell_seconds": round(duration, 6),
        "phase_seconds": phase_seconds,
        "metrics": metrics,
        "provenance": provenance,
        "stalls": stalls,
        "coverage": coverage,
        "failures": [
            {k: v for k, v in event.items()
             if k not in ("seq", "t", "event")}
            for event in cells_failed
        ],
        "events": len(events),
    }


def emit_result(
    log: EventLog,
    kind: str,
    identity: Dict[str, object],
    result,
    duration_s: float,
    point_tag: Optional[Dict[str, object]] = None,
) -> None:
    """Emit every event of one finished run (a matrix cell or a single run).

    ``kind`` is ``cell_finished`` or ``run_finished``; ``identity`` carries
    the cell-identifying fields (model, tool, repetition, ...) stamped
    onto every per-cell event, ``point_tag`` the fields stamped onto its
    ``timeline_point`` events.  Emits the finish record, the timeline,
    exactly one ``metrics`` event, the ``repro.trace/1`` kinds when the
    run was traced, and the ``provenance`` event when the ledger was on.
    """
    log.emit(
        kind,
        **identity,
        duration_s=round(duration_s, 6),
        decision=result.decision,
        condition=result.condition,
        mcdc=result.mcdc,
        cases=len(result.suite),
        stats=dict(result.stats),
    )
    for point in result.timeline:
        log.emit(
            "timeline_point",
            **(point_tag or {}),
            t=round(point.t, 6),
            decision=point.decision_coverage,
            origin=point.origin,
            new_branches=point.new_branches,
        )
    log.emit("metrics", **identity, schema=METRICS_SCHEMA,
             snapshot=result.metrics)
    _emit_trace_events(log, identity, result.trace_data)
    if result.provenance:
        log.emit(
            "provenance",
            **identity,
            schema=PROVENANCE_SCHEMA,
            provenance=result.provenance,
        )


def _emit_trace_events(
    log: EventLog,
    identity: Dict[str, object],
    trace_data: Dict[str, object],
) -> None:
    """Forward one run's ``trace_data`` as ``repro.trace/1`` events.

    No-op when the run was not traced.
    """
    if not trace_data:
        return
    log.emit(
        "phase_totals",
        **identity,
        schema=TRACE_SCHEMA,
        phases=trace_data.get("phase_totals") or {},
    )
    growth = trace_data.get("tree_growth") or []
    if growth:
        log.emit(
            "tree_growth",
            **identity,
            schema=TRACE_SCHEMA,
            points=[[round(float(t), 6), value] for t, value in growth],
        )
    for target in (trace_data.get("solver_targets") or [])[:_MAX_TARGET_SPANS]:
        log.emit(
            "span",
            **identity,
            schema=TRACE_SCHEMA,
            name="solve",
            target=target.get("target"),
            calls=target.get("calls", 0),
            seconds=target.get("seconds", 0.0),
        )


def _jsonable(value: object) -> object:
    """Last-resort JSON coercion for odd stat values (array scalars, sets)."""
    if isinstance(value, (set, frozenset, tuple)):
        return sorted(value) if isinstance(value, (set, frozenset)) else list(value)
    try:
        return float(value)  # array-library floats/ints
    except (TypeError, ValueError):
        return repr(value)


def read_events(path: str) -> List[Dict[str, object]]:
    """Parse a JSONL event stream back into a list of event dicts."""
    events: List[Dict[str, object]] = []
    with open(path) as handle:
        for line_no, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                events.append(json.loads(line))
            except json.JSONDecodeError as err:
                raise ReproError(
                    f"{path}:{line_no}: malformed event line: {err}"
                ) from err
    return events
