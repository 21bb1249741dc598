"""Worker heartbeats and the parent-side stall watchdog.

Live observability for pooled matrix runs.  Each worker process streams
periodic *beats* — cell identity, phase, state-tree size,
coverage-so-far, solver calls, peak RSS — to its own JSONL sidecar file
(``hb-<pid>.jsonl``), so the files need no cross-process locking and a
killed worker leaves its last beat behind.  The parent tails the sidecar
directory with a :class:`StallWatchdog` and emits a ``cell_stalled``
event into the run's :class:`~repro.telemetry.events.EventLog` when a
running cell goes quiet for a configurable fraction of its timeout.

Beat schema (``repro.heartbeat/1``) — every line is an object with:

* ``schema``/``pid``/``n`` — version tag, writer process, 0-based beat
  counter within this file,
* ``cell``/``model``/``tool``/``repetition`` — which cell is running,
* ``phase``/``cell_elapsed_s``/``tree_nodes``/``solver_calls``/
  ``coverage`` — the :class:`~repro.obs.probe.ProgressProbe` sample,
* ``rss_kb`` — peak resident set size via ``resource.getrusage``
  (``None`` where the platform lacks ``resource``).

Observation must not perturb: the beat thread only *reads* the probe and
the probe never feeds back into the generator, so fixed-seed suites are
bit-identical with heartbeats on or off (pinned by the equivalence
suite).
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

try:
    import resource
except ImportError:  # pragma: no cover - non-POSIX platforms
    resource = None

from repro.errors import ReproError
from repro.obs.probe import PROBE

__all__ = [
    "HEARTBEAT_SCHEMA",
    "HeartbeatConfig",
    "HeartbeatWriter",
    "StallWatchdog",
    "ensure_heartbeat",
    "heartbeat_dir_for",
    "read_heartbeats",
]

#: Version tag embedded in every beat line.
HEARTBEAT_SCHEMA = "repro.heartbeat/1"


def peak_rss_kb() -> Optional[int]:
    """Peak resident set size of this process in KiB (None if unknown)."""
    if resource is None:
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB; macOS reports bytes.
    if os.uname().sysname == "Darwin":  # pragma: no cover
        peak //= 1024
    return int(peak)


def heartbeat_dir_for(events_path: str) -> str:
    """The sidecar directory derived from an event-log path."""
    return events_path + ".hb"


def heartbeat_path(directory: str, pid: Optional[int] = None) -> str:
    """The per-process sidecar file inside ``directory``."""
    return os.path.join(directory, f"hb-{pid if pid is not None else os.getpid()}.jsonl")


@dataclass(frozen=True)
class HeartbeatConfig:
    """What a worker needs to start beating (picklable, ships to the pool)."""

    #: Directory the per-worker ``hb-<pid>.jsonl`` sidecars live in.
    directory: str
    #: Seconds between beats.
    interval_s: float = 1.0


class HeartbeatWriter:
    """One per worker process: a daemon thread sampling the probe.

    The thread wakes every ``interval_s``, samples :data:`PROBE`, and —
    when a cell is active — appends one JSON line to this process's
    sidecar.  :meth:`beat_now` forces an immediate beat (cell start and
    finish), so even cells shorter than the interval leave a record.
    """

    def __init__(self, config: HeartbeatConfig):
        self.config = config
        os.makedirs(config.directory, exist_ok=True)
        self.path = heartbeat_path(config.directory)
        # Append: one worker process runs many cells through one file.
        self._handle = open(self.path, "a")
        self._n = 0
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="repro-heartbeat", daemon=True
        )
        self._thread.start()

    def _run(self) -> None:
        while not self._stop.wait(self.config.interval_s):
            self.beat_now()

    def beat_now(self) -> Optional[Dict[str, object]]:
        """Write one beat immediately (no-op between cells)."""
        sample = PROBE.sample()
        if sample is None:
            return None
        with self._lock:
            beat: Dict[str, object] = {
                "schema": HEARTBEAT_SCHEMA,
                "pid": os.getpid(),
                "n": self._n,
                "rss_kb": peak_rss_kb(),
            }
            beat.update(sample)
            self._n += 1
            self._handle.write(json.dumps(beat) + "\n")
            self._handle.flush()
            return beat

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=2.0)
        with self._lock:
            self._handle.close()


#: The per-process writer singleton (workers beat through one file).
_WRITER: Optional[HeartbeatWriter] = None


def ensure_heartbeat(config: HeartbeatConfig) -> HeartbeatWriter:
    """Get or start this process's heartbeat writer."""
    global _WRITER
    if _WRITER is None or _WRITER.config.directory != config.directory:
        _WRITER = HeartbeatWriter(config)
    return _WRITER


def read_heartbeats(directory: str) -> List[Dict[str, object]]:
    """Parse every sidecar in ``directory`` into one list of beats."""
    beats: List[Dict[str, object]] = []
    if not os.path.isdir(directory):
        return beats
    for name in sorted(os.listdir(directory)):
        if not (name.startswith("hb-") and name.endswith(".jsonl")):
            continue
        path = os.path.join(directory, name)
        with open(path) as handle:
            for line_no, line in enumerate(handle, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    beats.append(json.loads(line))
                except json.JSONDecodeError as err:
                    raise ReproError(
                        f"{path}:{line_no}: malformed heartbeat line: {err}"
                    ) from err
    return beats


class StallWatchdog:
    """Parent-side liveness monitor over the heartbeat sidecar directory.

    Tails every ``hb-*.jsonl`` file incrementally (byte offsets per file,
    tolerant of torn final lines) and tracks, per cell, the parent-clock
    time its *progress signature* — phase, tree size, solver calls,
    coverage — last changed; comparing observation times on one clock
    sidesteps worker/parent clock skew entirely.  Quietness means frozen
    progress, not missing beats: a worker whose main thread is wedged
    keeps beating (the writer is a daemon thread) with an unchanged
    signature, and a worker that died stops beating with its signature
    frozen at the last line — both go quiet; a healthy slow cell keeps
    changing its counters and never does.  A cell that has beaten at
    least once, has not finished, and has been quiet for ``quiet_s``
    seconds gets one ``cell_stalled`` event carrying its identity and
    last known progress.  Cells that never beat are merely *queued* —
    ``cell_started`` is emitted at submit time for every cell, so silence
    before the first beat is not evidence of a stall.

    ``check(now)`` is separated from the polling thread so tests can
    drive the clock explicitly.
    """

    def __init__(
        self,
        directory: str,
        quiet_s: float,
        emit: Callable[..., object],
        poll_s: float = 0.5,
        clock: Callable[[], float] = time.monotonic,
    ):
        if quiet_s <= 0:
            raise ReproError(f"quiet_s must be positive, got {quiet_s!r}")
        self.directory = directory
        self.quiet_s = quiet_s
        self.poll_s = poll_s
        self._emit = emit
        self._clock = clock
        self._offsets: Dict[str, int] = {}
        self._partial: Dict[str, str] = {}
        #: cell index -> [time the progress signature last changed,
        #:                latest beat payload, progress signature]
        self._last_seen: Dict[int, list] = {}
        self._done: set = set()
        self._flagged: set = set()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle -----------------------------------------------------

    def start(self) -> "StallWatchdog":
        self._thread = threading.Thread(
            target=self._run, name="repro-stall-watchdog", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=2.0)
            self._thread = None

    def _run(self) -> None:
        while not self._stop.wait(self.poll_s):
            self.scan()
            self.check(self._clock())

    # -- bookkeeping ---------------------------------------------------

    def note_done(self, cell: int) -> None:
        """The parent recorded this cell's outcome; it can no longer stall."""
        self._done.add(cell)

    @property
    def stalled_cells(self) -> List[int]:
        return sorted(self._flagged)

    # -- the scan/check cycle ------------------------------------------

    def scan(self) -> int:
        """Ingest new beats from every sidecar; returns how many."""
        if not os.path.isdir(self.directory):
            return 0
        now = self._clock()
        ingested = 0
        for name in sorted(os.listdir(self.directory)):
            if not (name.startswith("hb-") and name.endswith(".jsonl")):
                continue
            path = os.path.join(self.directory, name)
            try:
                with open(path) as handle:
                    handle.seek(self._offsets.get(path, 0))
                    chunk = handle.read()
                    self._offsets[path] = handle.tell()
            except OSError:
                continue
            chunk = self._partial.pop(path, "") + chunk
            lines = chunk.split("\n")
            # A torn final line (no trailing newline yet) waits for the
            # next scan.
            if lines and lines[-1]:
                self._partial[path] = lines[-1]
            for line in lines[:-1]:
                line = line.strip()
                if not line:
                    continue
                try:
                    beat = json.loads(line)
                except json.JSONDecodeError:
                    continue
                cell = beat.get("cell")
                if cell is None:
                    continue
                # Progress, not liveness: only a *changed* signature
                # resets the quiet clock (n / elapsed tick regardless).
                signature = (
                    beat.get("phase"),
                    beat.get("tree_nodes"),
                    beat.get("solver_calls"),
                    beat.get("coverage"),
                )
                tracked = self._last_seen.get(int(cell))
                if tracked is None or tracked[2] != signature:
                    self._last_seen[int(cell)] = [now, beat, signature]
                else:
                    tracked[1] = beat  # freshest payload, frozen clock
                ingested += 1
        return ingested

    def check(self, now: float) -> List[int]:
        """Flag newly stalled cells as of parent time ``now``."""
        newly: List[int] = []
        for cell, (seen_at, beat, _sig) in sorted(self._last_seen.items()):
            if cell in self._done or cell in self._flagged:
                continue
            quiet = now - seen_at
            if quiet < self.quiet_s:
                continue
            self._flagged.add(cell)
            newly.append(cell)
            self._emit(
                "cell_stalled",
                cell=cell,
                model=beat.get("model"),
                tool=beat.get("tool"),
                repetition=beat.get("repetition"),
                phase=beat.get("phase"),
                quiet_s=round(quiet, 3),
                threshold_s=round(self.quiet_s, 3),
                last_tree_nodes=beat.get("tree_nodes"),
                last_solver_calls=beat.get("solver_calls"),
                last_coverage=beat.get("coverage"),
            )
        return newly
