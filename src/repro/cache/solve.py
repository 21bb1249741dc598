"""Fingerprint-keyed caches for the STCG solve hot path.

One :class:`SolveCache` serves one model (its ``model_key``) and bundles
the two memoizations Algorithm 1 profits from:

* the **encoding cache** — a bounded LRU from state fingerprint to
  :class:`~repro.solver.encoder.OneStepEncoding`.  An encoding
  specializes the model's step template to its state on demand, one
  queried decision or condition point at a time, and keeps what it
  specialized; revisiting a tree node whose state was already encoded
  reuses all of that instead of starting over.
* the **verdict cache** — (state fingerprint, solve target) pairs the
  solver *refuted deterministically*.  A later attempt on the same pair
  (typically a fresh generator re-solving the same cell, or a new tree
  node that reaches an already-known state) skips the solver call
  entirely.
* the **compiled-constraint cache** — a bounded LRU from (state
  fingerprint, solve target) to the solver kernel's
  :class:`~repro.solverc.compiler.CompiledConstraint` bundle.  The
  one-step constraint is a pure function of that key, so the compiled
  distance objectives — and the cached contraction *result* the bundle
  carries — replay exactly.

Cache-key soundness (see DESIGN.md for the full argument): a one-step
constraint is a pure function of (model, state value, target), so the
fingerprint fully determines it.  An UNSAT verdict is a *proof* — it holds
for every input, independent of search randomness — so it may be cached
per (fingerprint, target) forever.  UNKNOWN is a *budget artifact* (the
search ran out of samples or time) and must stay retryable; it is never
cached.  SAT is not cached either: the generator wants fresh, diverse
models, and a SAT branch leaves the uncovered set immediately anyway.

Only verdicts from the randomness-free pipeline stages
(:data:`CACHEABLE_UNSAT_STAGES`) are recorded: a ``fold``/``contract``
refutation consumes zero RNG draws, so skipping its replay leaves the
generator's random stream — and therefore every downstream decision —
bit-identical.  A ``split``-stage UNSAT is only reached *after* the
randomized sampling stage has consumed draws; caching it would make a warm
run diverge from a cold one, so it is deliberately left out.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.cache.lru import LRUCache

__all__ = [
    "CACHEABLE_UNSAT_STAGES",
    "DEFAULT_COMPILED_CAPACITY",
    "DEFAULT_ENCODING_CAPACITY",
    "SolveCache",
]

#: Solver stages whose UNSAT verdicts are deterministic *and* consume no
#: RNG draws — the two properties that make them safe to cache without
#: perturbing a fixed-seed run (``canonical_stage`` tags).
CACHEABLE_UNSAT_STAGES = ("fold", "contract")

#: Default bound of the encoding LRU (entries).
DEFAULT_ENCODING_CAPACITY = 512

#: Default bound of the compiled-constraint LRU (entries).
DEFAULT_COMPILED_CAPACITY = 256

#: Marker for a (fingerprint, target) key seen exactly once — see
#: :meth:`SolveCache.compiled_constraint`.
_FIRST_VISIT = object()


class SolveCache:
    """Encoding + verdict caches for one model, keyed by state fingerprint.

    Instances are cheap and by default private to one generator; passing
    the same instance to several generators of the *same compiled model*
    (repeated repetitions of a matrix cell, a re-run of an experiment)
    shares the learned encodings and dead verdicts across runs.  The cache
    is observationally transparent: with it warm or cold, a fixed-seed
    generation run produces bit-identical suites and coverage.
    """

    __slots__ = (
        "model_key",
        "encodings",
        "compiled",
        "verdicts_enabled",
        "verdict_hits",
        "_dead",
        "_restored_contraction",
    )

    def __init__(
        self,
        model_key: str,
        *,
        encoding_capacity: int = DEFAULT_ENCODING_CAPACITY,
        compiled_capacity: int = DEFAULT_COMPILED_CAPACITY,
        verdicts: bool = True,
    ):
        self.model_key = str(model_key)
        self.encodings = LRUCache(encoding_capacity)
        self.compiled = LRUCache(compiled_capacity)
        self.verdicts_enabled = bool(verdicts)
        self.verdict_hits = 0
        #: (fingerprint, target key) -> whether the refutation counted as
        #: a solver failure when first seen (a skip must replicate the
        #: failure-backoff bookkeeping exactly to stay transparent).
        self._dead: Dict[Tuple[str, object], bool] = {}
        #: Contraction results restored from the warm-start store, keyed
        #: like ``compiled`` and attached to a bundle the moment the
        #: factory builds it (see :meth:`compiled_constraint`).
        self._restored_contraction: Dict[tuple, tuple] = {}

    # -- encodings -----------------------------------------------------

    def encoding(self, fingerprint: str, factory):
        """The cached one-step encoding for ``fingerprint``, else build it.

        ``factory`` is a zero-argument callable; a rebuild after eviction
        is deterministic, so a bounded cache never changes results — only
        how often the symbolic executor runs.
        """
        encoding = self.encodings.get(fingerprint)
        if encoding is None:
            encoding = factory()
            self.encodings.put(fingerprint, encoding)
        return encoding

    # -- compiled constraints ------------------------------------------

    def compiled_constraint(self, fingerprint: str, target_key, factory):
        """The cached solver-kernel bundle for (fingerprint, target).

        Compilation is deferred to the *second* visit of a key: most
        (state, target) pairs are solved exactly once per run (the
        verdict cache retires dead pairs, SAT retires the target), so a
        first visit only leaves a marker and returns ``None`` — the
        caller solves through the plain interpreter at zero extra cost.
        A revisit calls ``factory`` to build the
        :class:`~repro.solverc.compiler.CompiledConstraint` and every
        visit after that reuses it, contraction snapshots included.

        The constraint is a pure function of the key, so a rebuild after
        eviction is deterministic — the bound changes how often the
        compiler runs, never what the solver returns.
        """
        key = (fingerprint, target_key)
        entry = self.compiled.get(key)
        if entry is None:
            self.compiled.put(key, _FIRST_VISIT)
            return None
        if entry is _FIRST_VISIT:
            entry = factory()
            if self._restored_contraction:
                # A warm-started bundle replays the previous run's
                # contraction result — a pure function of the constraint
                # and the initial box, so attaching it is equivalent to
                # the bundle having computed it on this visit.
                cached = self._restored_contraction.pop(key, None)
                if cached is not None and entry.contract_result is None:
                    entry.contract_result = cached
            self.compiled.put(key, entry)
        return entry

    # -- verdicts ------------------------------------------------------

    def dead_verdict(self, fingerprint: str, target_key) -> Optional[bool]:
        """``None`` if the pair is not known dead; else whether the
        original refutation counted toward failure backoff."""
        counts_failure = self._dead.get((fingerprint, target_key))
        if counts_failure is not None:
            self.verdict_hits += 1
        return counts_failure

    def mark_dead(
        self, fingerprint: str, target_key, *, counts_failure: bool
    ) -> None:
        """Record a deterministic refutation of (state, target)."""
        if self.verdicts_enabled:
            self._dead[(fingerprint, target_key)] = counts_failure

    @property
    def verdict_entries(self) -> int:
        return len(self._dead)

    # -- warm-start store folds ----------------------------------------

    def export_folds(self) -> Dict[str, object]:
        """The cache's persistable derived state (see :mod:`repro.store`).

        Three folds: dead verdicts, compiled-LRU keys (persisted as
        first-visit *markers* — a warm run recompiles the bundle, which
        is pinned bit-identical to interpreting), and the contraction
        snapshots those bundles carried.  One-step encodings are not
        persisted: a warm run re-specializes them from the step
        template, which is cheaper than decoding them.  Markers are
        emitted in eviction order so a restore reproduces the original
        eviction behaviour exactly.  Export reads the LRU through
        :meth:`~repro.cache.lru.LRUCache.items` — no counter or recency
        traffic, so exporting is pure observation.
        """
        from repro.store.codec import encode_target_key

        fps: list = []
        fp_index: Dict[str, int] = {}

        def intern(fingerprint: str) -> int:
            index = fp_index.get(fingerprint)
            if index is None:
                index = len(fps)
                fps.append(fingerprint)
                fp_index[fingerprint] = index
            return index

        verdicts = [
            [
                intern(fingerprint),
                encode_target_key(target_key),
                bool(counts_failure),
            ]
            for (fingerprint, target_key), counts_failure in self._dead.items()
        ]
        markers = []
        snapshots = []
        for (fingerprint, target_key), entry in self.compiled.items():
            encoded_key = encode_target_key(target_key)
            markers.append([intern(fingerprint), encoded_key])
            contract_result = getattr(entry, "contract_result", None)
            if contract_result is not None:
                feasible, snapshot = contract_result
                snapshots.append(
                    [
                        intern(fingerprint),
                        encoded_key,
                        bool(feasible),
                        {
                            name: [interval.lo, interval.hi]
                            for name, interval in snapshot.items()
                        },
                    ]
                )
        # Pending restored snapshots that were never consumed this run
        # are still valid — carry them forward instead of dropping them.
        for (fingerprint, target_key), (feasible, snapshot) in (
            self._restored_contraction.items()
        ):
            snapshots.append(
                [
                    intern(fingerprint),
                    encode_target_key(target_key),
                    bool(feasible),
                    {
                        name: [interval.lo, interval.hi]
                        for name, interval in snapshot.items()
                    },
                ]
            )
        return {
            "fps": fps,
            "verdicts": verdicts,
            "markers": markers,
            "snapshots": snapshots,
        }

    def restore_folds(self, payload) -> Dict[str, int]:
        """Load :meth:`export_folds` output; returns per-fold counts.

        Decode-then-apply: every artifact is decoded into staging lists
        first, so a malformed payload raises *before* the cache mutates
        and the caller can fall back to a fully cold start.  Keys this
        method does not know (an ``encodings`` fold written by an older
        build) are ignored.
        """
        from repro.solver.interval import Interval
        from repro.store.codec import CodecError, decode_target_key

        fps = payload.get("fps", [])
        if not isinstance(fps, list):
            raise CodecError(f"malformed fps table {type(fps).__name__}")

        def fp(obj) -> str:
            index = int(obj)
            if not 0 <= index < len(fps):
                raise CodecError(f"fingerprint index {obj!r} out of range")
            return str(fps[index])

        staged_verdicts = [
            (fp(index), decode_target_key(key), bool(counts_failure))
            for index, key, counts_failure in payload.get("verdicts", [])
        ]
        staged_markers = [
            (fp(index), decode_target_key(key))
            for index, key in payload.get("markers", [])
        ]
        staged_snapshots = [
            (
                fp(index),
                decode_target_key(key),
                bool(feasible),
                {
                    str(name): Interval(float(lo), float(hi))
                    for name, (lo, hi) in snapshot.items()
                },
            )
            for index, key, feasible, snapshot in payload.get("snapshots", [])
        ]
        if self.verdicts_enabled:
            for fingerprint, target_key, counts_failure in staged_verdicts:
                self._dead[(fingerprint, target_key)] = counts_failure
        for fingerprint, target_key in staged_markers:
            self.compiled.put((fingerprint, target_key), _FIRST_VISIT)
        for fingerprint, target_key, feasible, snapshot in staged_snapshots:
            self._restored_contraction[(fingerprint, target_key)] = (
                feasible, snapshot,
            )
        return {
            "verdicts": len(staged_verdicts) if self.verdicts_enabled else 0,
            "markers": len(staged_markers),
            "snapshots": len(staged_snapshots),
        }

    # -- telemetry -----------------------------------------------------

    def stats(self) -> Dict[str, int]:
        """Counters in the canonical ``CACHE_COUNTERS`` naming."""
        return {
            "encoding_hits": self.encodings.hits,
            "encoding_misses": self.encodings.misses,
            "encoding_evictions": self.encodings.evictions,
            "compiled_hits": self.compiled.hits,
            "compiled_misses": self.compiled.misses,
            "compiled_evictions": self.compiled.evictions,
            "verdict_hits": self.verdict_hits,
            "verdict_entries": len(self._dead),
        }

    def clear(self) -> None:
        self.encodings.clear()
        self.compiled.clear()
        self._dead.clear()

    def __repr__(self) -> str:
        return (
            f"SolveCache({self.model_key!r}, encodings={self.encodings!r}, "
            f"dead={len(self._dead)})"
        )
