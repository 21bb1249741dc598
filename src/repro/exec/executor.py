"""Process-pool matrix executor with crash isolation and cell timeouts.

The paper's evaluation is a (tool × model × repetition) matrix; this module
fans the cells out across worker processes.  Three properties the legacy
serial runner lacked:

* **parallelism** — cells run on a ``ProcessPoolExecutor``; wall-clock
  scales with cores instead of with the number of cells;
* **crash isolation** — a cell that raises, or a worker that dies outright,
  degrades to a recorded :class:`~repro.exec.cells.CellFailure` instead of
  aborting the matrix (a broken pool re-runs the unfinished cells
  in-process);
* **determinism** — seeds are derived per cell by a process-stable hash and
  results are aggregated in plan order, so ``workers=1`` and ``workers=N``
  produce bit-identical coverage aggregates.

Per-cell wall-clock timeouts are enforced *inside* the running process via
``SIGALRM`` (POSIX): the cell raises :class:`~repro.errors.CellTimeout`,
which the guard converts into a recorded failure while the worker survives
to take the next cell.  On platforms without ``SIGALRM`` (or off the main
thread) the timeout degrades to unenforced, which only ever errs toward
completing the cell.
"""

from __future__ import annotations

import signal
import threading
import time
import traceback
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.baselines.simcotest import SimCoTestConfig, SimCoTestGenerator
from repro.baselines.sldv import SldvConfig, SldvGenerator
from repro.core.config import StcgConfig
from repro.core.result import GenerationResult
from repro.core.stcg import StcgGenerator
from repro.errors import CellTimeout, HarnessError
from repro.exec.cells import CellFailure, CellSpec, plan_matrix
from repro.exec.heartbeat import (
    HeartbeatConfig,
    StallWatchdog,
    ensure_heartbeat,
    heartbeat_dir_for,
)
from repro.fuzz.engine import FuzzGenerator, HybridGenerator
from repro.models.registry import BenchmarkModel
from repro.obs.probe import PROBE
from repro.telemetry.events import EventLog, emit_result

#: The paper's three tools, in rendering order.
TOOLS = ("SLDV", "SimCoTest", "STCG")

#: Every dispatchable tool: the paper's three plus the fuzzing engines
#: (``Fuzz`` is the pure mutational baseline, ``Hybrid`` the
#: STCG → targeted-fuzz → STCG pipeline of :mod:`repro.fuzz`).  The
#: default matrix stays the paper's ``TOOLS``; the extra columns are
#: opt-in (``tools=`` / ``repro table3 --tools``).
ALL_TOOLS = TOOLS + ("Fuzz", "Hybrid")


def run_single(
    tool: str,
    model: BenchmarkModel,
    budget_s: float,
    seed: int,
    sldv_max_depth: int = 6,
    trace: bool = False,
    stcg_overrides: Dict[str, object] = None,
    provenance: bool = True,
    store_dir: str = "",
) -> GenerationResult:
    """One generation run of one tool on a fresh build of the model.

    ``stcg_overrides`` carries extra ``StcgConfig`` fields (kernel/cache
    sub-configs, ablation flags) applied only when ``tool == "STCG"``; an
    explicit ``provenance`` override there wins over the ``provenance``
    parameter.  ``store_dir`` attaches the warm-start store to the
    STCG-family tools (an explicit ``store`` override wins); the other
    tools have no solve caches to persist and ignore it.
    """
    compiled = model.build()
    if tool in ("STCG", "Fuzz", "Hybrid"):
        overrides = dict(stcg_overrides or {})
        overrides.setdefault("provenance", provenance)
        if store_dir:
            from repro.core.config import StoreConfig

            overrides.setdefault("store", StoreConfig(path=store_dir))
        config = StcgConfig(
            budget_s=budget_s, seed=seed, trace=trace, **overrides
        )
        if tool == "Fuzz":
            return FuzzGenerator(compiled, config).run()
        if tool == "Hybrid":
            return HybridGenerator(compiled, config).run()
        return StcgGenerator(compiled, config).run()
    if tool == "SimCoTest":
        return SimCoTestGenerator(
            compiled,
            SimCoTestConfig(budget_s=budget_s, seed=seed, trace=trace,
                            provenance=provenance),
        ).run()
    if tool == "SLDV":
        return SldvGenerator(
            compiled,
            SldvConfig(budget_s=budget_s, seed=seed,
                       max_depth=sldv_max_depth, trace=trace,
                       provenance=provenance),
        ).run()
    raise HarnessError(f"unknown tool {tool!r}")


def run_cell(spec: CellSpec) -> GenerationResult:
    """Execute one matrix cell (in whatever process this is called from)."""
    return run_single(
        spec.tool, spec.model, spec.budget_s, spec.seed, spec.sldv_max_depth,
        spec.trace, dict(spec.stcg_overrides), provenance=spec.provenance,
        store_dir=spec.store_dir,
    )


# ----------------------------------------------------------------------
# timeout guard
# ----------------------------------------------------------------------


class _CellAlarm:
    """Context manager raising :class:`CellTimeout` after ``seconds``.

    Uses ``SIGALRM``/``setitimer``, so it interrupts even a cell stuck in a
    tight loop.  A no-op when ``seconds`` is falsy, off the main thread, or
    on platforms without ``SIGALRM``.
    """

    def __init__(self, seconds: Optional[float]):
        self.seconds = seconds
        self._armed = False
        self._previous = None

    def _supported(self) -> bool:
        return (
            hasattr(signal, "SIGALRM")
            and threading.current_thread() is threading.main_thread()
        )

    def __enter__(self):
        if self.seconds and self._supported():
            def _on_alarm(signum, frame):
                raise CellTimeout(
                    f"cell exceeded its {self.seconds:g}s wall-clock timeout"
                )

            self._previous = signal.signal(signal.SIGALRM, _on_alarm)
            signal.setitimer(signal.ITIMER_REAL, self.seconds)
            self._armed = True
        return self

    def __exit__(self, *exc_info):
        if self._armed:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._previous)
        return False


# ----------------------------------------------------------------------
# worker payloads
# ----------------------------------------------------------------------


@dataclass
class _CellOutcome:
    """What comes back from a worker: a result or a recorded failure."""

    kind: str  # "ok" | "timeout" | "crash"
    index: int
    duration_s: float
    result: Optional[GenerationResult] = None
    message: str = ""
    traceback: str = ""


def _run_cell_guarded(
    spec: CellSpec,
    cell_timeout: Optional[float],
    heartbeat: Optional[HeartbeatConfig] = None,
) -> _CellOutcome:
    """Run one cell, converting timeouts and crashes into data.

    This is the function shipped to worker processes; it must never raise
    for a cell-level problem, or the failure would take the future (and,
    for hard deaths, the whole pool) down with it.

    When ``heartbeat`` is set, the cell activates this process's
    :data:`~repro.obs.probe.PROBE` and heartbeat writer around the run:
    an immediate beat on entry (so even instant cells leave a record),
    periodic beats from the writer thread while the cell runs, and a
    final ``done`` beat on the way out.
    """
    started = time.monotonic()
    writer = None
    if heartbeat is not None:
        writer = ensure_heartbeat(heartbeat)
        PROBE.enabled = True
        PROBE.activate(
            cell=spec.index,
            model=spec.model.name,
            tool=spec.tool,
            repetition=spec.repetition,
        )
        writer.beat_now()
    try:
        with _CellAlarm(cell_timeout):
            result = run_cell(spec)
        return _CellOutcome(
            "ok", spec.index, time.monotonic() - started, result=result
        )
    except CellTimeout as err:
        return _CellOutcome(
            "timeout", spec.index, time.monotonic() - started,
            message=str(err),
        )
    except Exception as err:
        return _CellOutcome(
            "crash", spec.index, time.monotonic() - started,
            message=f"{type(err).__name__}: {err}",
            traceback=traceback.format_exc(),
        )
    finally:
        if writer is not None:
            PROBE.note(phase="done")
            writer.beat_now()
            PROBE.deactivate()


# ----------------------------------------------------------------------
# the executor
# ----------------------------------------------------------------------


@dataclass
class ToolOutcome:
    """Aggregated coverage of one tool on one model.

    Cells that failed are excluded from ``runs``; the aggregate properties
    fall back to 0.0 when *every* repetition failed so a partial matrix
    still renders.
    """

    tool: str
    model: str
    runs: List[GenerationResult] = field(default_factory=list)

    def _mean(self, metric: str) -> float:
        if not self.runs:
            return 0.0
        return sum(getattr(r, metric) for r in self.runs) / len(self.runs)

    @property
    def decision(self) -> float:
        return self._mean("decision")

    @property
    def condition(self) -> float:
        return self._mean("condition")

    @property
    def mcdc(self) -> float:
        return self._mean("mcdc")

    @property
    def ok(self) -> bool:
        return bool(self.runs)

    @property
    def representative(self) -> GenerationResult:
        """The run whose decision coverage is the median (for Figure 4)."""
        if not self.runs:
            raise HarnessError(
                f"no successful runs of {self.tool} on {self.model}"
            )
        ordered = sorted(self.runs, key=lambda r: r.decision)
        return ordered[len(ordered) // 2]


@dataclass
class ExperimentResult:
    """Everything a matrix execution produced.

    ``outcomes`` has the legacy ``{model: {tool: ToolOutcome}}`` shape the
    table/figure renderers consume; ``failures`` records every cell that
    timed out or crashed; ``manifest`` is the structured run summary the
    telemetry layer renders.
    """

    outcomes: Dict[str, Dict[str, ToolOutcome]]
    failures: List[CellFailure]
    cells_total: int
    wall_s: float
    manifest: Dict[str, object] = field(default_factory=dict)

    @property
    def cells_ok(self) -> int:
        return self.cells_total - len(self.failures)

    @property
    def ok(self) -> bool:
        return not self.failures


def execute_matrix(
    models: Sequence[BenchmarkModel],
    tools: Sequence[str] = TOOLS,
    *,
    budget_s: float = 30.0,
    repetitions: int = 3,
    sldv_repetitions: int = 1,
    seed: int = 0,
    sldv_max_depth: int = 6,
    workers: int = 1,
    cell_timeout: Optional[float] = None,
    progress: Optional[Callable[[str], None]] = None,
    events: Optional[EventLog] = None,
    trace: bool = False,
    provenance: bool = True,
    stcg_overrides: Optional[Dict[str, object]] = None,
    heartbeat_s: Optional[float] = None,
    stall_fraction: float = 0.5,
    heartbeat_dir: Optional[str] = None,
    store_dir: str = "",
) -> ExperimentResult:
    """Run every tool on every model, fanned out over ``workers`` processes.

    ``workers=1`` runs the plan in-process (still with timeout and crash
    guards); ``workers>1`` ships cells to a process pool.  Both paths use
    the same per-cell seeds and aggregate in plan order, so the coverage
    numbers are identical.

    ``heartbeat_s`` turns on live observability: every worker streams a
    beat each ``heartbeat_s`` seconds to a per-worker JSONL sidecar in
    ``heartbeat_dir`` (default: ``<events path>.hb``), and the parent
    runs a :class:`~repro.exec.heartbeat.StallWatchdog` that emits a
    ``cell_stalled`` event when a running cell goes quiet for
    ``stall_fraction`` of its timeout (of ``budget_s`` when no cell
    timeout is set).  Heartbeats only observe — fixed-seed results are
    bit-identical with them on or off.
    """
    if workers < 1:
        raise HarnessError(f"workers must be >= 1, got {workers}")
    if cell_timeout is not None and cell_timeout <= 0:
        raise HarnessError(f"cell_timeout must be positive, got {cell_timeout}")
    if heartbeat_s is not None and heartbeat_s <= 0:
        raise HarnessError(f"heartbeat_s must be positive, got {heartbeat_s}")
    if not 0.0 < stall_fraction:
        raise HarnessError(
            f"stall_fraction must be positive, got {stall_fraction}"
        )
    if events is None:
        # No sink given: fold into an in-memory log, so the manifest comes
        # from the one builder either way.
        events = EventLog()
    heartbeat: Optional[HeartbeatConfig] = None
    if heartbeat_s is not None:
        directory = heartbeat_dir
        if directory is None and events.path:
            directory = heartbeat_dir_for(events.path)
        if directory is None:
            import tempfile

            directory = tempfile.mkdtemp(prefix="repro-hb-")
        heartbeat = HeartbeatConfig(directory=directory, interval_s=heartbeat_s)
    cells = plan_matrix(
        models,
        tools,
        budget_s=budget_s,
        repetitions=repetitions,
        sldv_repetitions=sldv_repetitions,
        seed=seed,
        sldv_max_depth=sldv_max_depth,
        trace=trace,
        provenance=provenance,
        stcg_overrides=stcg_overrides,
        store_dir=store_dir,
    )
    started = time.monotonic()
    events.emit(
        "matrix_started",
        models=[m.name for m in models],
        tools=list(tools),
        budget_s=budget_s,
        repetitions=repetitions,
        sldv_repetitions=sldv_repetitions,
        seed=seed,
        workers=workers,
        cell_timeout=cell_timeout,
        trace=trace,
        heartbeat_s=heartbeat_s,
        store_dir=store_dir,
        cells=len(cells),
    )

    payloads: List[Optional[_CellOutcome]] = [None] * len(cells)
    watchdog: Optional[StallWatchdog] = None
    if heartbeat is not None:
        reference = cell_timeout if cell_timeout is not None else budget_s
        watchdog = StallWatchdog(
            heartbeat.directory,
            quiet_s=max(stall_fraction * reference, 2.0 * heartbeat_s),
            emit=events.emit,
            poll_s=heartbeat_s / 2.0,
        ).start()

    def _record(spec: CellSpec, payload: _CellOutcome) -> None:
        payloads[spec.index] = payload
        if watchdog is not None:
            watchdog.note_done(spec.index)
        _notify(spec, payload, progress, events)

    try:
        if workers == 1 or len(cells) <= 1:
            for spec in cells:
                events.emit("cell_started", **spec.identity())
                _record(spec, _run_cell_guarded(spec, cell_timeout, heartbeat))
        else:
            _run_pooled(cells, workers, cell_timeout, events, _record, heartbeat)
    finally:
        if watchdog is not None:
            watchdog.stop()

    failures: List[CellFailure] = []
    outcomes: Dict[str, Dict[str, ToolOutcome]] = {}
    for spec in cells:
        payload = payloads[spec.index]
        per_tool = outcomes.setdefault(spec.model.name, {})
        outcome = per_tool.setdefault(
            spec.tool, ToolOutcome(spec.tool, spec.model.name)
        )
        if payload.kind == "ok":
            outcome.runs.append(payload.result)
        else:
            failures.append(
                CellFailure(
                    tool=spec.tool,
                    model=spec.model.name,
                    repetition=spec.repetition,
                    seed=spec.seed,
                    kind=payload.kind,
                    message=payload.message,
                    traceback=payload.traceback,
                    duration_s=payload.duration_s,
                )
            )

    wall_s = time.monotonic() - started
    events.emit(
        "matrix_finished",
        cells=len(cells),
        ok=len(cells) - len(failures),
        failed=len(failures),
        wall_s=round(wall_s, 6),
    )
    return ExperimentResult(
        outcomes=outcomes,
        failures=failures,
        cells_total=len(cells),
        wall_s=wall_s,
        manifest=events.manifest(),
    )


def _run_pooled(
    cells: Sequence[CellSpec],
    workers: int,
    cell_timeout: Optional[float],
    events: EventLog,
    record: Callable[[CellSpec, _CellOutcome], None],
    heartbeat: Optional[HeartbeatConfig] = None,
) -> None:
    """Fan cells out over a process pool; survive a broken pool.

    If a worker dies so hard the pool breaks (segfault, OOM kill), every
    unfinished cell is re-run in-process under the same guard — slower, but
    the matrix still completes with every cell accounted for.
    """
    done: Dict[int, bool] = {}
    try:
        with ProcessPoolExecutor(max_workers=min(workers, len(cells))) as pool:
            future_map = {}
            for spec in cells:
                events.emit("cell_started", **spec.identity())
                future_map[
                    pool.submit(_run_cell_guarded, spec, cell_timeout, heartbeat)
                ] = spec
            for future in as_completed(future_map):
                spec = future_map[future]
                try:
                    payload = future.result()
                except Exception:  # BrokenProcessPool and friends
                    continue  # re-run in-process below
                done[spec.index] = True
                record(spec, payload)
    except BrokenProcessPool:
        pass
    # Re-run everything that never produced a payload (broken-pool path).
    for spec in cells:
        if spec.index not in done:
            record(spec, _run_cell_guarded(spec, cell_timeout, heartbeat))


def _notify(
    spec: CellSpec,
    payload: _CellOutcome,
    progress: Optional[Callable[[str], None]],
    events: EventLog,
) -> None:
    """Per-completed-cell progress + telemetry, from the parent process."""
    if payload.kind == "ok":
        result = payload.result
        if progress is not None:
            progress(
                f"{spec.label}: D={result.decision:.0%} "
                f"C={result.condition:.0%} M={result.mcdc:.0%}"
            )
        emit_result(
            events, "cell_finished", spec.identity(), result,
            payload.duration_s, point_tag={"cell": spec.index},
        )
    else:
        if progress is not None:
            progress(f"{spec.label}: FAILED ({payload.kind}: {payload.message})")
        events.emit(
            "cell_failed",
            **spec.identity(),
            kind=payload.kind,
            message=payload.message,
            duration_s=round(payload.duration_s, 6),
        )
