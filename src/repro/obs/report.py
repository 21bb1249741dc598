"""Render a ``repro.events/1`` stream as a text report.

The ``repro report`` subcommand reads an events JSONL file (written by
``repro generate/compare/table3/fig4 --events-out ... [--trace]``) and
prints:

* run summary (cells, failures, stalls, wall-clock),
* the per-cell ``repro.metrics/1`` snapshots folded into one, grouped by
  namespace (``run.*``, ``solver.stage.*``, ``cache.*``, ``kernel.*``,
  ``solverc.*``, ``fuzz.*``, ``store.*``, ...), plus the derived rates of
  :data:`repro.metrics.RATES` (cache hit rate, stage win rates, fuzz
  executions/sec, ...),
* per-cell phase-time breakdown (where the generator's time went),
* state-tree growth curves,
* coverage-vs-time curves (from the ``timeline_point`` events),
* objective provenance,
* the top-N slowest solver targets.

Every run emits its metrics snapshot, so the metrics section renders for
untraced streams too.  Every section whose event kind is absent prints an
explicit ``(no events of kind <kind> ...)`` line rather than a
zero-filled table, so a reader can tell "not recorded" from "recorded as
zero".
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

__all__ = ["render_report", "trace_missing_kinds", "trace_phase_totals"]

_SPARK = " .:-=+*#%@"


def _spark(values: Sequence[float], width: int = 40) -> str:
    """A fixed-width ASCII sparkline over ``values`` (last sample wins)."""
    if not values:
        return ""
    lo, hi = min(values), max(values)
    span = (hi - lo) or 1.0
    # Resample onto `width` columns.
    columns: List[float] = []
    for i in range(width):
        index = min(len(values) - 1, i * len(values) // width)
        columns.append(values[index])
    scale = len(_SPARK) - 1
    return "".join(
        _SPARK[int(round((v - lo) / span * scale))] for v in columns
    )


def _of_kind(events, kind: str) -> List[Dict[str, object]]:
    return [e for e in events if e.get("event") == kind]


def _cell_key(event: Dict[str, object]) -> Tuple:
    return (
        event.get("model", "?"),
        event.get("tool", "?"),
        event.get("repetition", 0),
    )


def _cell_label(key: Tuple) -> str:
    model, tool, repetition = key
    return f"{model}/{tool} rep{repetition}"


def trace_missing_kinds(events) -> List[str]:
    """The ``repro.trace/1`` kinds with no events in the stream.

    Ordered like :data:`~repro.telemetry.events.TRACE_KINDS` so error
    messages are stable.  ``repro report --require-trace`` uses this to
    *name* what is missing instead of a bare "not traced".
    """
    from repro.telemetry.events import TRACE_KINDS

    present = {e.get("event") for e in events}
    return [kind for kind in TRACE_KINDS if kind not in present]


def trace_phase_totals(events) -> Dict[str, float]:
    """Total traced seconds per phase across the whole stream."""
    totals: Dict[str, float] = {}
    for event in _of_kind(events, "phase_totals"):
        for phase, stat in (event.get("phases") or {}).items():
            totals[phase] = (
                totals.get(phase, 0.0) + float((stat or {}).get("seconds", 0.0))
            )
    return totals


def render_report(events, top_n: int = 10) -> str:
    """The full text report over one parsed event stream."""
    lines: List[str] = []
    lines += _section_summary(events)
    lines += _section_metrics(events)
    lines += _section_phases(events)
    lines += _section_tree_growth(events)
    lines += _section_coverage(events)
    lines += _section_provenance(events)
    lines += _section_targets(events, top_n)
    return "\n".join(lines)


# ----------------------------------------------------------------------
# sections
# ----------------------------------------------------------------------


def _section_summary(events) -> List[str]:
    finished = _of_kind(events, "matrix_finished")
    ok = len(_of_kind(events, "cell_finished")) + len(
        _of_kind(events, "run_finished")
    )
    failed = len(_of_kind(events, "cell_failed"))
    wall = (
        float(finished[-1].get("wall_s", 0.0)) if finished
        else (float(events[-1].get("t", 0.0)) if events else 0.0)
    )
    lines = [
        "run report",
        "==========",
        f"  events: {len(events)}   cells ok: {ok}   failed: {failed}   "
        f"wall: {wall:.2f}s",
    ]
    for failure in _of_kind(events, "cell_failed"):
        lines.append(
            f"  [failed] {_cell_label(_cell_key(failure))}: "
            f"{failure.get('kind')}: {failure.get('message')}"
        )
    for stall in _of_kind(events, "cell_stalled"):
        lines.append(
            f"  [stalled] {_cell_label(_cell_key(stall))}: quiet "
            f"{float(stall.get('quiet_s', 0.0)):.1f}s in phase "
            f"{stall.get('phase')!r} "
            f"(tree={stall.get('last_tree_nodes')}, "
            f"solver={stall.get('last_solver_calls')})"
        )
    lines.append("")
    return lines


#: Metric namespaces in report order: (name prefix, heading).
_NAMESPACES = (
    ("run.", "every tool"),
    ("stcg.", "STCG generator"),
    ("solver.stage.", "solver stages"),
    ("cache.", "solve cache"),
    ("kernel.", "simulation kernel"),
    ("solverc.", "solver kernel"),
    ("fuzz.", "fuzz campaigns"),
    ("store.", "warm-start store"),
)


def _namespace(name: str) -> str:
    for prefix, _ in _NAMESPACES:
        if name.startswith(prefix):
            return prefix
    return name.split(".", 1)[0] + "."


def _section_metrics(events) -> List[str]:
    metric_events = _of_kind(events, "metrics")
    if not metric_events:
        return ["metrics (repro.metrics/1)", "-------------------------",
                "  (no events of kind metrics in this stream)", ""]
    from repro.metrics import derived_rates, format_rate
    from repro.telemetry.events import build_manifest

    # The manifest's fold: one aggregate, whichever reader asks.
    folded = build_manifest(metric_events)["metrics"]
    title = (f"metrics (repro.metrics/1, folded over {len(metric_events)} "
             "cell snapshot(s))")
    lines = [title, "-" * len(title)]
    # name -> rendered value, for every instrument that recorded anything.
    rendered: Dict[str, str] = {}
    omitted = 0
    for name, value in (folded.get("counters") or {}).items():
        if value:
            rendered[name] = f"{int(value):>12d}"
        else:
            omitted += 1
    for name, gauge in (folded.get("gauges") or {}).items():
        value = (gauge or {}).get("value")
        if value:
            value = float(value)
            rendered[name] = (f"{int(value):>12d}" if value.is_integer()
                              else f"{value:>12.3f}")
        else:
            omitted += 1
    for name, hist in (folded.get("histograms") or {}).items():
        if int(hist.get("count", 0)):
            rendered[name] = (
                f"count={int(hist['count'])} "
                f"sum={float(hist.get('sum', 0.0)):.1f} "
                f"buckets{list(hist.get('counts') or [])}"
            )
        else:
            omitted += 1
    groups: Dict[str, List[str]] = {}
    for name in sorted(rendered):
        groups.setdefault(_namespace(name), []).append(name)
    headings = dict(_NAMESPACES)
    order = [prefix for prefix, _ in _NAMESPACES]
    order += sorted(prefix for prefix in groups if prefix not in headings)
    for prefix in order:
        heading = f"{headings.get(prefix, 'other')} ({prefix}*)"
        if prefix not in groups:
            lines.append(f"  {heading}: all zero")
            continue
        lines.append(f"  {heading}")
        for name in groups[prefix]:
            lines.append(f"    {name:<36s} {rendered[name]}")
    if omitted:
        lines.append(f"  ({omitted} zero instrument(s) omitted)")
    lines.append("  derived rates:")
    undefined = 0
    for name, value in derived_rates(folded).items():
        if value is None:
            undefined += 1
            continue
        lines.append(f"    {name:<36s} {format_rate(name, value):>12s}")
    if undefined:
        lines.append(f"    ({undefined} rate(s) with a zero denominator "
                     "omitted)")
    lines.append("")
    return lines


def _section_phases(events) -> List[str]:
    lines = ["phase-time breakdown (repro.trace/1)",
             "------------------------------------"]
    phase_events = _of_kind(events, "phase_totals")
    if not phase_events:
        lines += ["  (no events of kind phase_totals — re-run with --trace)",
                  ""]
        return lines
    for event in phase_events:
        phases = event.get("phases") or {}
        total = sum(
            float((stat or {}).get("seconds", 0.0)) for stat in phases.values()
        )
        lines.append(f"  {_cell_label(_cell_key(event))}  "
                     f"(traced {total:.3f}s)")
        for phase, stat in sorted(
            phases.items(),
            key=lambda item: -float((item[1] or {}).get("seconds", 0.0)),
        ):
            seconds = float((stat or {}).get("seconds", 0.0))
            count = int((stat or {}).get("count", 0))
            share = (seconds / total * 100.0) if total else 0.0
            lines.append(
                f"    {phase:<12s} {seconds:>9.3f}s  {share:5.1f}%"
                f"  x{count}"
            )
    lines.append("")
    return lines


def _section_tree_growth(events) -> List[str]:
    lines = ["state-tree growth", "-----------------"]
    growth_events = _of_kind(events, "tree_growth")
    if not growth_events:
        lines += ["  (no events of kind tree_growth — STCG cells only, "
                  "with --trace)", ""]
        return lines
    for event in growth_events:
        points = event.get("points") or []
        values = [float(p[1]) for p in points]
        final = int(values[-1]) if values else 0
        lines.append(
            f"  {_cell_label(_cell_key(event)):<28s} "
            f"|{_spark(values)}| {final} nodes"
        )
    lines.append("")
    return lines


def _section_coverage(events) -> List[str]:
    lines = ["coverage vs time", "----------------"]
    points = _of_kind(events, "timeline_point")
    if not points:
        lines += ["  (no events of kind timeline_point in this stream)", ""]
        return lines
    # Matrix streams key points by cell index; single runs carry none.
    cell_names = {
        e.get("cell"): _cell_label(_cell_key(e))
        for e in _of_kind(events, "cell_started")
    }
    by_cell: Dict[object, List[Tuple[float, float]]] = {}
    for point in points:
        by_cell.setdefault(point.get("cell"), []).append(
            (float(point.get("t", 0.0)), float(point.get("decision", 0.0)))
        )
    for cell, series in sorted(
        by_cell.items(), key=lambda item: str(item[0])
    ):
        series.sort()
        values = [v for _, v in series]
        label = cell_names.get(cell) or _single_run_label(events) or "run"
        lines.append(
            f"  {label:<28s} |{_spark(values)}| "
            f"{values[-1]:.1%} in {series[-1][0]:.2f}s"
        )
    lines.append("")
    return lines


def _section_provenance(events) -> List[str]:
    lines = ["objective provenance (repro.provenance/1)",
             "-----------------------------------------"]
    prov_events = _of_kind(events, "provenance")
    if not prov_events:
        lines += ["  (no events of kind provenance — the ledger was off)", ""]
        return lines
    for event in prov_events:
        snapshot = event.get("provenance") or {}
        totals = snapshot.get("totals") or {}
        objectives = snapshot.get("objectives") or {}
        uncovered = [
            oid for oid, entry in objectives.items()
            if entry.get("status") == "uncovered"
        ]
        label = _cell_label(_cell_key(event))
        lines.append(
            f"  {label:<28s} {totals.get('covered', 0)}/"
            f"{totals.get('objectives', 0)} covered"
        )
        for oid in uncovered[:5]:
            entry = objectives[oid]
            attempts = sum((entry.get("attempts") or {}).values())
            skips = sum((entry.get("skips") or {}).values())
            lines.append(
                f"    [uncovered] {oid} "
                f"({attempts} attempt(s), {skips} skip(s))"
            )
        if len(uncovered) > 5:
            lines.append(
                f"    ... and {len(uncovered) - 5} more "
                "(see repro explain --uncovered)"
            )
    lines.append("")
    return lines


def _single_run_label(events) -> Optional[str]:
    started = _of_kind(events, "run_started")
    if not started:
        return None
    event = started[-1]
    return f"{event.get('model', '?')}/{event.get('tool', '?')}"


def _section_targets(events, top_n: int) -> List[str]:
    lines = [f"slowest solver targets (top {top_n})",
             "-----------------------------------"]
    spans = [e for e in _of_kind(events, "span") if e.get("target")]
    if not spans:
        lines += ["  (no events of kind span — re-run with --trace)", ""]
        return lines
    targets: Dict[str, List[float]] = {}
    for span in spans:
        agg = targets.setdefault(str(span["target"]), [0, 0.0])
        agg[0] += int(span.get("calls", 0))
        agg[1] += float(span.get("seconds", 0.0))
    ranked = sorted(targets.items(), key=lambda item: -item[1][1])[:top_n]
    width = max(len(name) for name, _ in ranked)
    for name, (calls, seconds) in ranked:
        lines.append(f"  {name:<{width}s}  {seconds:>9.3f}s  x{calls}")
    lines.append("")
    return lines
