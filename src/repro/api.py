"""The stable public facade of the reproduction: ``repro.api``.

Downstream code (the CLI, the examples, the benchmark suite) talks to this
module instead of reaching into ``repro.harness`` / ``repro.exec``
internals.  Two entry points cover the whole workflow, both keyword-only:

* :func:`generate` — one generation run of one tool on one model,
* :func:`run_experiment` — the paper's (tool × model × repetition) matrix,
  fanned out over worker processes with crash isolation, per-cell
  timeouts, and structured JSONL telemetry.

The paper-artifact renderers (``table1`` … ``fig4``) are re-exported here
so a facade import is all an application needs::

    from repro import api

    result = api.generate("CPUTask", tool="STCG", budget_s=10.0, seed=0)
    experiment = api.run_experiment(
        models=["CPUTask", "TCP"], budget_s=5.0, repetitions=3,
        workers=4, cell_timeout=60.0, events_out="run.jsonl",
    )
    print(api.table3(experiment.outcomes))
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Callable, List, Optional, Sequence, Union

from repro.core.config import FuzzConfig, StcgConfig, StoreConfig
from repro.core.result import GenerationResult
from repro.core.stcg import StcgGenerator
from repro.errors import HarnessError
from repro.fuzz.engine import FuzzGenerator, HybridGenerator
from repro.exec.cells import CellFailure, derive_seed
from repro.exec.executor import (
    ALL_TOOLS,
    ExperimentResult,
    TOOLS,
    ToolOutcome,
    _CellAlarm,
    execute_matrix,
    run_single,
)
from repro.harness.figures import figure3, figure4, figure4_model
from repro.harness.runner import MatrixConfig
from repro.harness.tables import table1, table2, table3
from repro.model.graph import CompiledModel
from repro.models.registry import (
    BENCHMARKS,
    BenchmarkModel,
    benchmark_names,
    get_benchmark,
)
from repro.obs.report import render_report
from repro.provenance import PROVENANCE_SCHEMA
from repro.solverc.compiler import SolvercStats
from repro.telemetry.dashboard import render_dashboard
from repro.telemetry.events import EventLog, emit_result, read_events
from repro.telemetry.explain import load_provenance, render_explain

__all__ = [
    "ALL_TOOLS",
    "CellFailure",
    "FuzzConfig",
    "EventLog",
    "ExperimentResult",
    "GenerationResult",
    "MatrixConfig",
    "PROVENANCE_SCHEMA",
    "SolvercStats",
    "StcgConfig",
    "StoreConfig",
    "TOOLS",
    "ToolOutcome",
    "derive_seed",
    "figure3",
    "figure4",
    "figure4_model",
    "generate",
    "list_models",
    "load_provenance",
    "read_events",
    "render_dashboard",
    "render_explain",
    "render_report",
    "run_experiment",
    "table1",
    "table2",
    "table3",
]

ModelLike = Union[str, BenchmarkModel, CompiledModel]


def list_models() -> List[str]:
    """Names of the registered benchmark models."""
    return benchmark_names()


def _as_benchmark(model: ModelLike) -> BenchmarkModel:
    """Accept a benchmark name, a registry entry, or a compiled model."""
    if isinstance(model, BenchmarkModel):
        return model
    if isinstance(model, str):
        return get_benchmark(model)
    if isinstance(model, CompiledModel):
        # Ad-hoc wrapper for user-built models; the lambda builder is not
        # picklable, which is fine — single runs stay in-process.
        return BenchmarkModel(
            name=model.name,
            functionality="ad-hoc model",
            builder=lambda compiled=model: compiled,
            paper_branches=0,
            paper_blocks=0,
        )
    raise HarnessError(
        "model must be a name, BenchmarkModel or CompiledModel, "
        f"got {type(model).__name__}"
    )


def generate(
    model: ModelLike,
    *,
    tool: str = "STCG",
    budget_s: float = 10.0,
    seed: int = 0,
    sldv_max_depth: int = 6,
    config: Optional[StcgConfig] = None,
    cell_timeout: Optional[float] = None,
    events_out: Optional[str] = None,
    trace: bool = False,
    provenance: bool = True,
    stcg_overrides: Optional[dict] = None,
    store_dir: str = "",
) -> GenerationResult:
    """One generation run of one tool on one model.

    ``model`` may be a benchmark name (``"CPUTask"``), a
    :class:`BenchmarkModel`, or a user-built :class:`CompiledModel`.
    ``config`` (STCG/Fuzz/Hybrid only) overrides ``budget_s``/``seed``
    with a full :class:`StcgConfig`; ``stcg_overrides`` (same tools,
    exclusive with ``config``) applies extra :class:`StcgConfig` fields
    on top of ``budget_s``/``seed`` — e.g. ``skip_constant_false=False``
    — matching the ``run_experiment`` knob of the same name.
    ``cell_timeout`` bounds the run's wall clock (raising
    :class:`~repro.errors.CellTimeout`); ``events_out`` streams run
    telemetry to a JSONL file and writes a manifest next to it.
    ``trace`` turns on deep generator tracing:
    phase/solver-stage aggregates land in ``result.trace_data`` and —
    with ``events_out`` — as ``repro.trace/1`` events in the stream (see
    ``repro report``).  ``provenance`` controls the objective-level
    coverage ledger (``repro.provenance/1``): the snapshot lands in
    ``result.provenance`` and — with ``events_out`` — as a
    ``provenance`` event folded into the manifest (see ``repro explain``
    and ``repro dashboard``).  ``store_dir`` (STCG/Fuzz/Hybrid only)
    enables the persistent warm-start store (:mod:`repro.store`) rooted
    at that directory: verdicts, compiled-bundle markers, contraction
    snapshots, encodings, and fuzz corpora persist across runs, and
    the ``store.*`` counters land in ``result.metrics``.
    """
    if tool not in ALL_TOOLS:
        raise HarnessError(
            f"unknown tool {tool!r}; available: {', '.join(ALL_TOOLS)}"
        )
    stcg_family = tool in ("STCG", "Fuzz", "Hybrid")
    if budget_s <= 0:
        raise HarnessError(f"budget_s must be positive, got {budget_s!r}")
    if config is not None and not stcg_family:
        raise HarnessError("config= applies to STCG/Fuzz/Hybrid only")
    if stcg_overrides:
        if not stcg_family:
            raise HarnessError(
                "stcg_overrides= applies to STCG/Fuzz/Hybrid only"
            )
        if config is not None:
            raise HarnessError(
                "pass either config= or stcg_overrides=, not both"
            )
        overrides = dict(stcg_overrides)
        overrides.setdefault("provenance", provenance)
        config = StcgConfig(budget_s=budget_s, seed=seed, **overrides)
    if store_dir:
        if not stcg_family:
            raise HarnessError("store_dir= applies to STCG/Fuzz/Hybrid only")
        if config is None:
            config = StcgConfig(
                budget_s=budget_s, seed=seed, provenance=provenance
            )
        if config.store is None:
            config = replace(config, store=StoreConfig(path=store_dir))
    if config is not None and trace and not config.trace:
        config = replace(config, trace=True)
    bench = _as_benchmark(model)
    events = EventLog(events_out) if events_out else None
    try:
        if events is not None:
            events.emit(
                "run_started",
                model=bench.name,
                tool=tool,
                budget_s=(config.budget_s if config else budget_s),
                seed=(config.seed if config else seed),
            )
        started = time.monotonic()
        with _CellAlarm(cell_timeout):
            if config is not None:
                if tool == "Fuzz":
                    result = FuzzGenerator(bench.build(), config).run()
                elif tool == "Hybrid":
                    result = HybridGenerator(bench.build(), config).run()
                else:
                    result = StcgGenerator(bench.build(), config).run()
            else:
                result = run_single(
                    tool, bench, budget_s, seed, sldv_max_depth, trace,
                    provenance=provenance,
                )
        if events is not None:
            emit_result(
                events, "run_finished", {"model": bench.name, "tool": tool},
                result, time.monotonic() - started,
            )
            events.write_manifest(_manifest_path(events_out))
        return result
    finally:
        if events is not None:
            events.close()


def run_experiment(
    models: Optional[Sequence[ModelLike]] = None,
    *,
    tools: Sequence[str] = TOOLS,
    budget_s: float = 10.0,
    repetitions: int = 3,
    sldv_repetitions: int = 1,
    seed: int = 0,
    sldv_max_depth: int = 6,
    workers: int = 1,
    cell_timeout: Optional[float] = None,
    events_out: Optional[str] = None,
    progress: Optional[Callable[[str], None]] = None,
    trace: bool = False,
    provenance: bool = True,
    stcg_overrides: Optional[dict] = None,
    heartbeat_s: Optional[float] = None,
    stall_fraction: float = 0.5,
    heartbeat_dir: Optional[str] = None,
    store_dir: str = "",
) -> ExperimentResult:
    """Run the (tool × model × repetition) matrix, possibly in parallel.

    ``models=None`` runs all registered benchmarks.  ``workers`` fans the
    cells out over that many processes; ``workers=1`` and ``workers=N``
    aggregate to identical coverage numbers.  A cell that crashes or
    exceeds ``cell_timeout`` is recorded in ``result.failures`` instead of
    aborting the matrix.  ``events_out`` streams one JSON line per event
    and writes a ``*.manifest.json`` summary when the matrix finishes.
    ``trace`` enables deep generator tracing per cell; the aggregates are
    forwarded into the event stream as ``repro.trace/1`` events.
    ``stcg_overrides`` applies extra :class:`StcgConfig` fields
    (ablation flags such as ``skip_constant_false=False``) to every STCG
    cell.
    ``provenance`` controls every cell's objective-level coverage ledger
    (``repro.provenance/1``); the per-cell snapshots are emitted as
    ``provenance`` events and folded into the manifest's ``provenance``
    section.
    ``heartbeat_s`` streams per-worker liveness beats to JSONL sidecars
    (in ``heartbeat_dir``, default ``<events_out>.hb``) and arms the
    parent's stall watchdog, which emits ``cell_stalled`` events when a
    running cell goes quiet for ``stall_fraction`` of its timeout.
    ``store_dir`` enables the persistent warm-start store
    (:mod:`repro.store`) for every STCG-family cell; store keys are
    scoped per cell, so parallel workers never contend on one document.
    """
    for name in tools:
        if name not in ALL_TOOLS:
            raise HarnessError(
                f"unknown tool {name!r}; available: {', '.join(ALL_TOOLS)}"
            )
    # MatrixConfig is the single source of truth for matrix validation.
    config = MatrixConfig(
        budget_s=budget_s,
        repetitions=repetitions,
        sldv_repetitions=sldv_repetitions,
        seed=seed,
        sldv_max_depth=sldv_max_depth,
    )
    benches = [
        _as_benchmark(model)
        for model in (models if models is not None else BENCHMARKS)
    ]
    if not benches:
        raise HarnessError("run_experiment needs at least one model")
    events = EventLog(events_out) if events_out else None
    try:
        result = execute_matrix(
            benches,
            tools,
            budget_s=config.budget_s,
            repetitions=config.repetitions,
            sldv_repetitions=config.sldv_repetitions,
            seed=config.seed,
            sldv_max_depth=config.sldv_max_depth,
            workers=workers,
            cell_timeout=cell_timeout,
            progress=progress,
            events=events,
            trace=trace,
            provenance=provenance,
            stcg_overrides=stcg_overrides,
            heartbeat_s=heartbeat_s,
            stall_fraction=stall_fraction,
            heartbeat_dir=heartbeat_dir,
            store_dir=store_dir,
        )
        if events is not None:
            events.write_manifest(_manifest_path(events_out))
        return result
    finally:
        if events is not None:
            events.close()


def _manifest_path(events_out: str) -> str:
    """``run.jsonl`` → ``run.manifest.json`` (or append the suffix)."""
    if events_out.endswith(".jsonl"):
        return events_out[: -len(".jsonl")] + ".manifest.json"
    return events_out + ".manifest.json"
