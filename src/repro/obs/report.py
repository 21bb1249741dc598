"""Render a ``repro.events/1`` + ``repro.trace/1`` stream as a text report.

The ``repro report`` subcommand reads an events JSONL file (written by
``repro generate/compare/table3/fig4 --events-out ... [--trace]``) and
prints:

* run summary (cells, failures, wall-clock),
* per-cell phase-time breakdown (where the generator's time went),
* solver-stage win rates (which pipeline stage actually closes targets),
* solve-cache traffic (encoding hits/misses/evictions, verdict skips),
* simulation-kernel specialization (specialized/fallback blocks, steps),
* solver-kernel traffic (compiled constraints, batched vs scalar
  candidate scoring, contraction-snapshot replays, fallbacks),
* state-tree growth curves,
* coverage-vs-time curves (from the ``timeline_point`` events),
* the top-N slowest solver targets.

Everything degrades gracefully: an untraced stream still renders the
summary and coverage sections, and every section whose event kind is
absent prints an explicit ``(no events of kind <kind> ...)`` line rather
than a zero-filled table, so a reader can tell "not recorded" from
"recorded as zero".
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
    lines += _section_stages(events)
    lines += _section_cache(events)
    lines += _section_kernel(events)
    lines += _section_solverc(events)
    lines += _section_tree_growth(events)
    lines += _section_store(events)
    lines += _section_fuzz(events)
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


def _section_metrics(events) -> List[str]:
    lines = ["unified metrics (repro.metrics/1)",
             "---------------------------------"]
    metric_events = _of_kind(events, "metrics")
    if not metric_events:
        lines += ["  (no events of kind metrics — re-run with --trace)", ""]
        return lines
    from repro.metrics import empty_snapshot, fold_snapshots

    folded = fold_snapshots([
        (_cell_key(event), event.get("snapshot") or empty_snapshot())
        for event in metric_events
    ])
    lines.append(f"  (folded over {len(metric_events)} cell snapshot(s))")
    counters = folded.get("counters") or {}
    nonzero = {k: v for k, v in counters.items() if v}
    for name in sorted(nonzero):
        lines.append(f"  {name:<32s} {int(nonzero[name]):>12d}")
    zeros = len(counters) - len(nonzero)
    if zeros:
        lines.append(f"  ({zeros} zero counter(s) omitted)")
    for name, hist in sorted((folded.get("histograms") or {}).items()):
        lines.append(
            f"  {name}: count={int(hist.get('count', 0))} "
            f"sum={float(hist.get('sum', 0.0)):.1f} "
            f"buckets{list(hist.get('counts') or [])}"
        )
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
        counters = event.get("counters") or {}
        if counters:
            rendered = ", ".join(
                f"{name}={counters[name]}" for name in sorted(counters)
            )
            lines.append(f"    counters: {rendered}")
    lines.append("")
    return lines


def _section_stages(events) -> List[str]:
    lines = ["solver-stage win rates", "----------------------"]
    stage_events = _of_kind(events, "solver_stages")
    merged: Dict[str, Dict[str, float]] = {}
    from repro.obs.stages import SOLVER_STAGES, merge_stage_dicts

    for event in stage_events:
        merge_stage_dicts(merged, event.get("stages") or {})
    if not merged:
        lines += ["  (no events of kind solver_stages — re-run with --trace)",
                  ""]
        return lines
    lines.append(
        f"  {'stage':<10s} {'attempts':>8s} {'finished':>8s} "
        f"{'wins':>6s} {'win%':>6s} {'seconds':>9s}"
    )
    ordered = [s for s in SOLVER_STAGES if s in merged]
    ordered += [s for s in sorted(merged) if s not in SOLVER_STAGES]
    for stage in ordered:
        stat = merged[stage]
        finished = int(stat.get("finished", 0))
        wins = int(stat.get("wins", 0))
        rate = (wins / finished * 100.0) if finished else 0.0
        lines.append(
            f"  {stage:<10s} {int(stat.get('attempts', 0)):>8d} "
            f"{finished:>8d} {wins:>6d} {rate:>5.1f}% "
            f"{float(stat.get('seconds', 0.0)):>8.3f}s"
        )
    lines.append("")
    return lines


def _section_cache(events) -> List[str]:
    lines = ["solve-cache traffic", "-------------------"]
    cache_events = _of_kind(events, "cache_stats")
    if not cache_events:
        lines += ["  (no events of kind cache_stats — re-run with --trace)",
                  ""]
        return lines
    lines.append(
        f"  {'cell':<28s} {'enc hit':>8s} {'enc miss':>8s} "
        f"{'evict':>6s} {'hit%':>6s} {'vskips':>7s} {'dedup':>6s}"
    )
    for event in cache_events:
        hits = int(event.get("encoding_hits", 0))
        misses = int(event.get("encoding_misses", 0))
        lookups = hits + misses
        rate = (hits / lookups * 100.0) if lookups else 0.0
        lines.append(
            f"  {_cell_label(_cell_key(event)):<28s} {hits:>8d} "
            f"{misses:>8d} {int(event.get('encoding_evictions', 0)):>6d} "
            f"{rate:>5.1f}% {int(event.get('verdict_skips', 0)):>7d} "
            f"{int(event.get('dedup_links', 0)):>6d}"
        )
    lines.append("")
    return lines


def _section_kernel(events) -> List[str]:
    lines = ["simulation kernel", "-----------------"]
    kernel_events = _of_kind(events, "kernel_stats")
    if not kernel_events:
        lines += ["  (no events of kind kernel_stats — STCG cells only, "
                  "with --trace)", ""]
        return lines
    lines.append(
        f"  {'cell':<28s} {'state':>8s} {'special':>8s} "
        f"{'fallback':>8s} {'steps':>9s}"
    )
    for event in kernel_events:
        enabled = bool(event.get("enabled"))
        lines.append(
            f"  {_cell_label(_cell_key(event)):<28s} "
            f"{'on' if enabled else 'off':>8s} "
            f"{int(event.get('specialized_blocks', 0)):>8d} "
            f"{int(event.get('fallback_blocks', 0)):>8d} "
            f"{int(event.get('kernel_steps', 0)):>9d}"
        )
        fallback_classes = event.get("fallback_classes") or []
        if fallback_classes:
            lines.append(
                "    fallback classes: " + ", ".join(map(str, fallback_classes))
            )
    lines.append("")
    return lines


def _section_solverc(events) -> List[str]:
    lines = ["solver kernel", "-------------"]
    solverc_events = _of_kind(events, "solverc_stats")
    if not solverc_events:
        lines += ["  (no events of kind solverc_stats — STCG and SLDV "
                  "cells only, with --trace)", ""]
        return lines
    lines.append(
        f"  {'cell':<28s} {'state':>8s} {'compiled':>8s} "
        f"{'batched':>8s} {'scalar':>7s} {'cached':>7s}"
    )
    for event in solverc_events:
        enabled = bool(event.get("enabled"))
        batched = (
            int(event.get("candidates_batched", 0))
            + int(event.get("case_batched", 0))
        )
        scalar = (
            int(event.get("candidates_scalar", 0))
            + int(event.get("case_interpreted", 0))
        )
        lines.append(
            f"  {_cell_label(_cell_key(event)):<28s} "
            f"{'on' if enabled else 'off':>8s} "
            f"{int(event.get('constraints_compiled', 0)):>8d} "
            f"{batched:>8d} {scalar:>7d} "
            f"{int(event.get('contract_cached', 0)):>7d}"
        )
        fallbacks = {
            name: int(event.get(name, 0))
            for name in ("compile_fallbacks", "batch_fallbacks")
            if int(event.get(name, 0))
        }
        if fallbacks:
            lines.append(
                "    fallbacks: "
                + ", ".join(f"{k}={v}" for k, v in sorted(fallbacks.items()))
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


def _section_store(events) -> List[str]:
    lines = ["warm-start store (repro.store/1)",
             "--------------------------------"]
    store_events = _of_kind(events, "store_stats")
    if not store_events:
        lines += ["  (no events of kind store_stats — run with --store DIR)",
                  ""]
        return lines
    lines.append(
        f"  {'cell':<28s} {'reads':>6s} {'hits':>5s} {'rej':>4s} "
        f"{'writes':>6s} {'verd':>6s} {'mark':>5s} {'snap':>5s} "
        f"{'enc':>5s} {'seeds':>6s}"
    )
    for event in store_events:
        lines.append(
            f"  {_cell_label(_cell_key(event)):<28s} "
            f"{int(event.get('reads', 0)):>6d} "
            f"{int(event.get('hits', 0)):>5d} "
            f"{int(event.get('rejected', 0)):>4d} "
            f"{int(event.get('writes', 0)):>6d} "
            f"{int(event.get('restored_verdicts', 0)):>6d} "
            f"{int(event.get('restored_markers', 0)):>5d} "
            f"{int(event.get('restored_snapshots', 0)):>5d} "
            f"{int(event.get('restored_encodings', 0)):>5d} "
            f"{int(event.get('corpus_seeds', 0)):>6d}"
        )
    lines.append("")
    return lines


def _section_fuzz(events) -> List[str]:
    lines = ["fuzz campaigns", "--------------"]
    fuzz_events = _of_kind(events, "fuzz_stats")
    if not fuzz_events:
        lines += ["  (no events of kind fuzz_stats — Fuzz/Hybrid cells only)",
                  ""]
        return lines
    lines.append(
        f"  {'cell':<28s} {'execs':>7s} {'ex/s':>7s} {'corpus':>7s} "
        f"{'seeds':>6s} {'targets':>8s} {'fed':>5s}"
    )
    for event in fuzz_events:
        targets = event.get("targets")
        target_cell = (
            f"{event.get('targets_covered', 0)}/{targets}"
            if targets is not None else "-"
        )
        lines.append(
            f"  {_cell_label(_cell_key(event)):<28s} "
            f"{int(event.get('executions', 0)):>7d} "
            f"{float(event.get('execs_per_s', 0.0)):>7.0f} "
            f"{int(event.get('corpus_size', 0)):>7d} "
            f"{int(event.get('seed_entries', 0)):>6d} "
            f"{target_cell:>8s} "
            f"{int(event.get('tree_nodes', 0)):>5d}"
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
