"""Configuration for the STCG generator (and its ablations).

:class:`StcgConfig` holds the knobs of the paper's loop and its
Discussion-section variants; :class:`FuzzConfig` and :class:`StoreConfig`
configure the fuzzing engine and the warm-start store.  The compiled
kernels and the solve caches have no switches here: they are
observationally transparent (DESIGN.md, "Cache-key soundness"), and the
equivalence tests reach their reference paths through the constructors
of ``Simulator`` and ``SolveCache``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigError
from repro.solver.engine import SolverConfig

__all__ = [
    "FuzzConfig",
    "StcgConfig",
    "StoreConfig",
]


@dataclass(frozen=True, kw_only=True)
class StoreConfig:
    """Where (and whether) the persistent warm-start store lives.

    The store (:mod:`repro.store`) persists a run's derived state —
    solve-cache folds, the state tree, the fuzz corpus — keyed by
    content digests of the model and the cache-relevant config, so a
    repeated run of the same cell warm-starts instead of re-deriving
    everything.  ``read``/``write`` split the roles: a CI baseline job
    might write without reading, a strict-reuse consumer read without
    writing.  The store is best-effort by design: missing, stale, or
    corrupt documents make the run cold, never make it fail.
    """

    #: Directory holding the store documents (created on first write).
    path: str
    #: Load a matching document at run start (warm-start when present).
    read: bool = True
    #: Persist this run's derived state at run end.
    write: bool = True

    def __post_init__(self) -> None:
        if not isinstance(self.path, str) or not self.path:
            raise ConfigError(
                f"store.path must be a non-empty string, got {self.path!r}"
            )


@dataclass(frozen=True, kw_only=True)
class FuzzConfig:
    """Knobs of the coverage-guided fuzzing engine (:mod:`repro.fuzz`).

    The fuzzer's budget is **count-based** (``executions``), not
    wall-clock: a fixed-seed campaign executes the same candidates in the
    same order on any machine, which is what keeps fuzz and hybrid cells
    bit-identical across ``workers=1`` and ``workers=N``.  A wall-clock
    deadline still bounds the campaign from above (the enclosing run's
    ``budget_s``), so a slow model cannot overshoot its cell.
    """

    #: Candidate executions per campaign (the deterministic budget).
    executions: int = 512
    #: Hard cap on mutated sequence length, in steps.
    max_sequence_length: int = 24
    #: Self-seeding sequences (random + SimCoTest-style piecewise-constant
    #: signals) executed before mutation starts when no suite seeds the
    #: corpus.  Hybrid campaigns seed from the STCG suite instead.
    seed_sequences: int = 8
    #: Fraction of the hybrid budget spent on the initial pure-STCG pass;
    #: the remainder is shared by the fuzz campaign and the second solver
    #: pass over the fuzz-fed state tree.
    hybrid_split: float = 0.5
    #: Cap on fuzz-discovered covering states fed back into the state
    #: tree per campaign (hybrid mode's solver re-targeting).
    feedback_nodes: int = 256
    #: Write the final corpus as a ``repro.fuzz.corpus/1`` JSON document
    #: here after the campaign (the CI fuzz-corpus artifact).
    corpus_out: str = ""
    #: Seed the campaign corpus from a ``repro.fuzz.corpus/1`` document
    #: before the self-seeding phase.  Unlike the silent warm-start
    #: store, an unreadable or mismatched file here is a hard error —
    #: the user named it explicitly.
    corpus_in: str = ""

    def __post_init__(self) -> None:
        if self.executions < 1:
            raise ConfigError(
                f"fuzz.executions must be >= 1, got {self.executions!r}"
            )
        if self.max_sequence_length < 1:
            raise ConfigError(
                "fuzz.max_sequence_length must be >= 1, got "
                f"{self.max_sequence_length!r}"
            )
        if self.seed_sequences < 0:
            raise ConfigError(
                "fuzz.seed_sequences must be >= 0, got "
                f"{self.seed_sequences!r}"
            )
        if not 0.0 < self.hybrid_split < 1.0:
            raise ConfigError(
                "fuzz.hybrid_split must be in (0, 1), got "
                f"{self.hybrid_split!r}"
            )
        if self.feedback_nodes < 0:
            raise ConfigError(
                "fuzz.feedback_nodes must be >= 0, got "
                f"{self.feedback_nodes!r}"
            )


@dataclass(kw_only=True)
class StcgConfig:
    """Knobs of the STCG loop (keyword-only, validated on construction).

    The defaults reproduce the paper's algorithm.  The three flags at the
    bottom implement the Discussion-section variants and are exercised by
    the ablation benches:

    * ``random_warmup_s`` — hybrid mode: spend this long on pure random
      exploration before the solving loop ("introduce the random method
      into STCG ... first").
    * ``fresh_input_mix`` — draw this share of random-sequence elements
      from fresh random input values instead of the solved-input library
      ("constructing a random input sequence using only previously solved
      inputs may not reach some branches"); 1.0 draws them all fresh.
    * ``skip_constant_false`` — detect branch conditions that fold to the
      constant ``false`` on a state and mark them solved without invoking
      the engine (cheap stand-in for the proposed dead-logic verification;
      turning it off measures the wasted re-solving the paper describes).
      Most such pairs are decided before encoding, by compiled state
      guards (:mod:`repro.solver.guards`), which are on exactly when
      this is.
    """

    #: Wall-clock budget for one generation run, in seconds.
    budget_s: float = 10.0
    #: Random sequence length N used by Algorithm 2 when solving fails.
    random_sequence_length: int = 12
    #: Per-call solver budgets.  Kept deliberately small: a single one-step
    #: constraint either solves quickly or is worth abandoning for another
    #: (state, branch) pair — the paper treats solver timeouts as routine.
    solver: SolverConfig = field(
        default_factory=lambda: SolverConfig(
            max_samples=48, avm_evaluations=700, time_budget_s=0.15
        )
    )
    #: Master seed for all randomized components.
    seed: int = 0
    #: Stop as soon as every branch is covered (before the budget runs out).
    stop_on_full_coverage: bool = True
    #: After this many failed solver attempts on one target (across all
    #: states), further attempts use a much smaller "lite" budget.  Hard or
    #: dead targets otherwise starve dynamic exploration — the waste the
    #: paper's Discussion attributes to perpetually-false branches.
    failure_backoff_after: int = 12
    #: Random sequences executed per Algorithm-1 pass that found nothing
    #: solvable.  1 is the paper's literal loop; a small batch keeps the
    #: solve/explore wall-clock ratio balanced when most solver calls are
    #: hopeless.
    random_batch: int = 3
    #: Cap on state-tree size; random exploration pauses at the cap (the
    #: solver keeps running).  Guards against memory blow-up in long runs.
    max_tree_nodes: int = 4000

    # -- Discussion-section variants -------------------------------------------

    random_warmup_s: float = 0.0
    skip_constant_false: bool = True
    #: Probability that an element of a random sequence is drawn fresh from
    #: the input domains instead of the solved-input library.  The paper's
    #: Discussion proposes exactly this compensation ("attaching random
    #: methods") for branches the library alone cannot reach; 0.0 gives the
    #: strict library-only behaviour of Algorithm 2 and 1.0 draws every
    #: element fresh.
    fresh_input_mix: float = 0.25

    #: Verify unreachable branches up front by abstract interpretation
    #: (the Discussion's "verify the unreachable branches using the formal
    #: method") and exclude proven-dead branches from solving.
    prove_dead_branches: bool = False

    # -- sub-configs -------------------------------------------------------------

    #: The coverage-guided fuzzing engine (``tool="Fuzz"``/``"Hybrid"``)
    #: — see :class:`FuzzConfig`.  Ignored by the pure STCG loop.
    fuzz: FuzzConfig = field(default_factory=FuzzConfig)
    #: The persistent cross-run warm-start store — see
    #: :class:`StoreConfig`.  ``None`` (the default) disables the store
    #: entirely; every run is cold and nothing touches disk.
    store: "StoreConfig | None" = None

    #: Record a per-attempt trace (solve successes/failures, random runs).
    #: Used by the Table I / Figure 3 reproduction; off by default because
    #: traces grow with every solver attempt.
    record_trace: bool = False

    #: Deep tracing: profile the generator's phases (solve scan, solving,
    #: encoding, execution, warm-up), per-target solver time, solver-stage
    #: metrics and state-tree growth into ``GenerationResult.trace_data``
    #: (the ``repro.trace/1`` telemetry kinds).  Off by default; tracing
    #: never changes the generated tests or ``stats`` — only observes.
    trace: bool = False

    #: Objective-level coverage provenance (``repro.provenance/1``):
    #: record which (case, step) first covered every Decision/Condition/
    #: MCDC objective, and the audit chain of solver attempts — stage
    #: verdicts, verdict-cache replays, constant-false folds, kernel
    #: attribution — for every objective left uncovered
    #: (``GenerationResult.provenance``).  On by default and pinned
    #: observation-must-not-perturb: fixed-seed suites are bit-identical
    #: with this on or off.
    provenance: bool = True

    def __post_init__(self) -> None:
        if self.budget_s <= 0:
            raise ConfigError(
                f"budget_s must be positive, got {self.budget_s!r}"
            )
        if self.random_sequence_length < 1:
            raise ConfigError(
                "random_sequence_length must be >= 1, got "
                f"{self.random_sequence_length!r}"
            )
        if self.random_batch < 1:
            raise ConfigError(
                f"random_batch must be >= 1, got {self.random_batch!r}"
            )
        if self.max_tree_nodes < 1:
            raise ConfigError(
                f"max_tree_nodes must be >= 1, got {self.max_tree_nodes!r}"
            )
        if self.failure_backoff_after < 1:
            raise ConfigError(
                "failure_backoff_after must be >= 1, got "
                f"{self.failure_backoff_after!r}"
            )
        if self.random_warmup_s < 0:
            raise ConfigError(
                f"random_warmup_s must be >= 0, got {self.random_warmup_s!r}"
            )
        if not 0.0 <= self.fresh_input_mix <= 1.0:
            raise ConfigError(
                f"fresh_input_mix must be in [0, 1], got {self.fresh_input_mix!r}"
            )
        if not isinstance(self.fuzz, FuzzConfig):
            raise ConfigError(
                f"fuzz must be a FuzzConfig, got {self.fuzz!r}"
            )
        if self.store is not None and not isinstance(self.store, StoreConfig):
            raise ConfigError(
                f"store must be a StoreConfig or None, got {self.store!r}"
            )
        if not isinstance(self.seed, int):
            raise ConfigError(f"seed must be an int, got {self.seed!r}")
