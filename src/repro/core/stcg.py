"""The STCG generator: Algorithms 1 and 2 plus the outer iteration loop.

The structure follows the paper's Figure 2 exactly:

* **state-aware solving** (:meth:`StcgGenerator._state_aware_solve`,
  Algorithm 1) walks branches sorted by depth and the state tree, solves
  one model iteration with the node's state substituted as constants, and
  returns the first (state, branch, input) it can satisfy;
* **dynamic execution** (:meth:`StcgGenerator._dynamic_execute`,
  Algorithm 2) replays the solved input from the target state — or, when
  nothing was solvable, a random sequence of previously solved inputs from
  a random node — growing the state tree and synthesizing a test case
  whenever new coverage appears.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from operator import methodcaller
from typing import Callable, Dict, List, Optional, Tuple

from repro.cache.solve import CACHEABLE_UNSAT_STAGES, SolveCache
from repro.coverage.collector import CoverageCollector
from repro.coverage.registry import Branch
from repro.core.config import StcgConfig
from repro.core.input_library import InputLibrary
from repro.core.result import (
    GenerationResult,
    ORIGIN_RANDOM,
    ORIGIN_SOLVER,
    TimelineEvent,
)
from repro.core.state_tree import StateTree, StateTreeNode
from repro.core.testcase import TestCase, TestSuite
from repro.expr.ast import Const
from repro.metrics import (
    CASE_LENGTH_BOUNDS,
    MetricsRegistry,
    declare_instruments,
    populate_registry,
)
from repro.model.graph import CompiledModel
from repro.model.inputs import random_input
from repro.model.simulator import Simulator
from repro.obs.probe import PROBE
from repro.obs.stages import merge_stage_dicts
from repro.obs.tracer import NULL_TRACER, PhaseProfiler, Tracer
from repro.provenance import NULL_LEDGER, ProvenanceLedger
from repro.solver.encoder import OneStepEncoding
from repro.solver.engine import SolverConfig, SolverEngine, Status
from repro.solver.guards import StateGuards
from repro.solverc.compiler import ConstraintCompiler, SolvercStats

#: Schema tag of the deep-tracing aggregates in ``GenerationResult``.
TRACE_SCHEMA = "repro.trace/1"


@dataclass
class TraceEntry:
    """One recorded event of the generation process (Table I rows)."""

    kind: str  # solve_ok | solve_fail | random | exec
    branch_label: Optional[str] = None
    node_id: Optional[int] = None
    new_node_ids: Tuple[int, ...] = ()
    achieved_branches: Tuple[int, ...] = ()


@dataclass
class SolveTarget:
    """Algorithm 1's output triple.

    ``branch`` is ``None`` when the target is a condition/MCDC obligation
    rather than a model branch.
    """

    node: StateTreeNode
    branch: Optional[Branch]
    input_data: Dict[str, object]


class StcgGenerator:
    """State-aware test case generation for one compiled model."""

    def __init__(
        self,
        compiled: CompiledModel,
        config: Optional[StcgConfig] = None,
        clock: Callable[[], float] = time.monotonic,
        tracer: Optional[Tracer] = None,
        cache: Optional[SolveCache] = None,
    ):
        self.compiled = compiled
        self.config = config or StcgConfig()
        self._clock = clock
        #: Fingerprint-keyed encoding/verdict caches.  Private per
        #: generator by default; pass a shared instance to reuse learned
        #: encodings and dead verdicts across runs of the same model.
        self.cache = cache if cache is not None else SolveCache(compiled.name)
        #: Observability hook.  An explicit ``tracer`` wins; otherwise
        #: ``config.trace`` turns on an aggregating profiler; the default
        #: no-op tracer keeps every hook below the noise floor.
        if tracer is not None:
            self.tracer = tracer
        elif self.config.trace:
            self.tracer = PhaseProfiler(clock=time.monotonic)
        else:
            self.tracer = NULL_TRACER
        self._rng = random.Random(self.config.seed)
        self._engine = SolverEngine(self.config.solver)
        lite = SolverConfig(
            max_samples=12,
            avm_evaluations=80,
            time_budget_s=self.config.solver.time_budget_s,
            seed=self.config.seed,
        )
        self._lite_engine = SolverEngine(lite)
        #: Solver-kernel compiler (:mod:`repro.solverc`).  Compiled bundles
        #: are cached in :attr:`cache` keyed by (state fingerprint, target),
        #: and the engine falls back to the interpreter for any objective
        #: that failed to compile — results are bit-identical either way.
        self._compiler = ConstraintCompiler()
        #: Per-target state guards; the step template behind them (and
        #: behind the encodings) is built on first use, so runs that
        #: never solve skip it.
        self._guards = StateGuards(compiled)
        #: Failed solver attempts per target (branch id / obligation).
        self._failures: Dict[object, int] = {}
        #: Algorithm 1's ``SB``: per target, how many of the tree's
        #: canonical nodes it has tried (see :meth:`_state_aware_solve`).
        self._tried: Dict[object, int] = {}
        self.collector = CoverageCollector(compiled.registry)
        #: Objective-level coverage provenance (``repro.provenance/1``).
        #: Pure observation — never feeds back into the algorithm.
        self.ledger = (
            ProvenanceLedger(compiled.registry, "STCG")
            if self.config.provenance else NULL_LEDGER
        )
        self.simulator = Simulator(compiled, self.collector, tracer=self.tracer)
        self.tree = StateTree(self.simulator.get_state())
        self.library = InputLibrary()
        self.suite = TestSuite(
            compiled.name, [spec.name for spec in compiled.inports]
        )
        self.timeline: List[TimelineEvent] = []
        self.stats: Dict[str, int] = {
            "solver_calls": 0,
            "sat": 0,
            "unsat": 0,
            "unknown": 0,
            "const_false_skips": 0,
            "verdict_skips": 0,
            "random_sequences": 0,
            "steps_executed": 0,
            "warmup_steps": 0,
        }
        #: The unified metrics registry (``repro.metrics/1``).  Declared
        #: up front so a zero-activity run still snapshots the full
        #: instrument set; counters are projected from the accumulators
        #: at the end of the run (:meth:`_result`), but live-observed
        #: distributions (``stcg.case_length``) record as they happen.
        self.metrics = declare_instruments(MetricsRegistry())
        self._case_hist = self.metrics.histogram(
            "stcg.case_length", CASE_LENGTH_BOUNDS
        )
        self._start = 0.0
        self._branches = compiled.registry.branches_by_depth()
        #: Branch ids proven unreachable by abstract interpretation.
        self.proven_dead: set = set()
        if self.config.prove_dead_branches:
            from repro.analysis import find_dead_branches

            self.proven_dead = {
                b.branch_id for b in find_dead_branches(compiled)
            }
        self.stats["proven_dead"] = len(self.proven_dead)
        #: Persistent cross-run warm-start store (:mod:`repro.store`),
        #: or None when ``config.store`` is unset.  Scoped per cell
        #: (tool + seed) so matrix workers never share a file; the fuzz
        #: generators re-scope it before first use.
        self.store = None
        if self.config.store is not None:
            from repro.store import WarmStore

            self.store = WarmStore(
                self.config.store,
                compiled,
                self.config,
                scope=f"STCG|seed={self.config.seed}",
            )
            self.stats.update(
                store_reads=0,
                store_hits=0,
                store_misses=0,
                store_rejected=0,
                store_writes=0,
                restored_verdicts=0,
                restored_markers=0,
                restored_snapshots=0,
                corpus_seeds=0,
            )
        #: Derived-state sizes right after a successful warm-start
        #: restore — the skip-save fingerprint (see :meth:`_store_save`).
        self._store_snapshot: Optional[tuple] = None
        #: Process trace (populated when config.record_trace is on).
        self.trace: List[TraceEntry] = []

    # ------------------------------------------------------------------
    # public entry point
    # ------------------------------------------------------------------

    def run(self) -> GenerationResult:
        """Generate test cases until the budget expires or coverage is full."""
        self._store_load()
        self._start = self._clock()
        tracer = self.tracer
        probe = PROBE
        if probe.enabled:
            # Publish progress for heartbeats: plain attribute writes that
            # never feed back into the algorithm (see repro.obs.probe).
            probe.note(coverage_fn=self.collector.decision_coverage)
        if self.config.random_warmup_s > 0:
            if probe.enabled:
                probe.note(phase="warmup")
            with tracer.span("warmup"):
                self._random_warmup()
        while not self._done():
            if probe.enabled:
                probe.note(
                    phase="solve_scan",
                    tree_nodes=len(self.tree),
                    solver_calls=self.stats["solver_calls"],
                )
            with tracer.span("solve_scan"):
                target = self._state_aware_solve()
            if self._out_of_time():
                break
            if probe.enabled:
                probe.note(
                    phase="execute",
                    solver_calls=self.stats["solver_calls"],
                )
            with tracer.span("execute"):
                self._dynamic_execute(target)
            if target is None:
                # Nothing was solvable anywhere: bias toward exploration for
                # a few rounds before paying for another full solve scan.
                for _ in range(self.config.random_batch - 1):
                    if self._done():
                        break
                    with tracer.span("execute"):
                        self._dynamic_execute(None)
            if tracer.enabled:
                tracer.sample("tree_nodes", self._elapsed(), len(self.tree))
        self._store_save()
        return self._result("STCG")

    def _result(self, tool: str) -> GenerationResult:
        """The finished run as ``tool``'s result (STCG, Fuzz, Hybrid).

        Projects the accumulators into the metrics registry once — the
        run's ``metrics`` snapshot, traced or not — and, for traced runs,
        hands the same accumulator dicts out as ``repro.trace/1`` data.
        """
        stats = {**self.stats, "tree_nodes": len(self.tree)}
        stages = merge_stage_dicts({}, self._engine.metrics.as_dict())
        merge_stage_dicts(stages, self._lite_engine.metrics.as_dict())
        cache = {
            **self.cache.stats(),
            "verdict_skips": self.stats["verdict_skips"],
            "dedup_links": self.tree.dedup_links,
            "unique_states": self.tree.unique_states(),
        }
        kernel = self.simulator.kernel_stats()
        solverc = self._solverc_stats()
        populate_registry(
            self.metrics,
            stats=stats,
            solver_stages=stages,
            cache=cache,
            kernel=kernel,
            solverc=solverc,
        )
        trace_data: Dict[str, object] = {}
        summarize = getattr(self.tracer, "summary", None)
        if summarize is not None:
            summary = summarize()
            trace_data = {
                "schema": TRACE_SCHEMA,
                "phase_totals": summary["phase_totals"],
                "solver_stages": stages,
                "tree_growth": summary["series"].get("tree_nodes", []),
                "solver_targets": summary["targets"],
                "cache": cache,
                "kernel": (
                    {"enabled": False} if kernel is None
                    else {"enabled": True, **kernel}
                ),
                "solverc": solverc,
            }
        return GenerationResult(
            tool=tool,
            model_name=self.compiled.name,
            summary=self.collector.summary(),
            suite=self.suite,
            timeline=list(self.timeline),
            stats=stats,
            trace_data=trace_data,
            provenance=self.ledger.snapshot(),
            metrics=self.metrics.snapshot(),
        )

    def _solverc_stats(self) -> Dict[str, object]:
        """Solver-kernel counters over both engines plus the compiler."""
        merged = SolvercStats()
        merged.merge(self._engine.solverc)
        merged.merge(self._lite_engine.solverc)
        merged.merge(self._compiler.stats)
        return {"enabled": True, **merged.as_dict()}

    # ------------------------------------------------------------------
    # Algorithm 1: state-aware solving
    # ------------------------------------------------------------------

    def _state_aware_solve(self) -> Optional[SolveTarget]:
        """The first (state, target) pair the solver satisfies, if any.

        ``SB`` is one cursor per target into the tree's append-only list
        of canonical nodes.  A scan tries nodes in order and stops right
        after the first solved one, so the nodes a target has tried are
        always a prefix of that list, and the next scan resumes there.
        """
        nodes = self.tree.solve_nodes()
        tried = self._tried
        for target_key, objective, label, constraint_of, branch in (
            self._targets()
        ):
            for index in range(tried.get(target_key, 0), len(nodes)):
                if self._out_of_time():
                    return None
                tried[target_key] = index + 1
                target = self._solve(
                    nodes[index], target_key, objective, label,
                    constraint_of, branch,
                )
                if target is not None:
                    return target
        return None

    def _targets(self):
        """Algorithm 1's targets, in scan order, as ``_solve`` arguments.

        Uncovered branches by depth first (skipping proven-dead ones),
        then the condition / MCDC obligations ("all the coverage
        requirements" of the paper).
        """
        ledger = self.ledger
        for branch in self._branches:
            if self.collector.is_branch_covered(branch):
                continue
            if branch.branch_id in self.proven_dead:
                continue
            yield (
                ("branch", branch.branch_id),
                ledger.branch_objective(branch) if ledger.enabled else None,
                branch.label,
                methodcaller("path_constraint", branch),
                branch,
            )
        for obligation in self.collector.unsatisfied_condition_obligations():
            yield (
                ("obligation", obligation),
                (
                    ledger.obligation_objective(obligation)
                    if ledger.enabled else None
                ),
                repr(obligation),
                methodcaller("obligation_constraint", obligation),
                None,
            )

    def _solve(
        self,
        node: StateTreeNode,
        target_key,
        objective: Optional[str],
        label: str,
        constraint_of: Callable[[OneStepEncoding], object],
        branch: Optional[Branch] = None,
    ) -> Optional[SolveTarget]:
        """One solver attempt for (state, target); the caller marks it tried.

        ``constraint_of`` picks the target's one-step constraint from the
        node's encoding and ``label`` tags the solve span.  ``branch`` is
        ``None`` for a condition/MCDC obligation: obligations write no
        process-trace rows of their own, only a verdict-cache skip's
        unlabelled one (see :meth:`_skip_dead`).
        """
        ledger = self.ledger
        record = self.config.record_trace and branch is not None
        if self._skip_dead(
            node, target_key, label if branch is not None else None, objective
        ):
            return None
        fingerprint = node.state.fingerprint()
        skip_false = self.config.skip_constant_false
        # A false state guard is the encoder's constant-false verdict,
        # reached without specializing the template (repro.solver.guards).
        constant_false = skip_false and self._guards.refutes(
            target_key, node.state
        )
        if not constant_false:
            with self.tracer.span("encode"):
                encoding = self.cache.encoding(
                    fingerprint,
                    lambda: OneStepEncoding(self.compiled, node.state),
                )
                constraint = constraint_of(encoding)
            constant_false = (
                skip_false
                and isinstance(constraint, Const)
                and constraint.value is False
            )
        if constant_false:
            # The target is unreachable from this state regardless of input
            # (e.g. a transition whose source state is inactive).  The skip
            # never counted toward failure backoff, so a cached replay of
            # it must not either.
            self.stats["const_false_skips"] += 1
            self.cache.mark_dead(fingerprint, target_key, counts_failure=False)
            if ledger.enabled:
                ledger.skip(objective, "const_false")
            if record:
                self.trace.append(TraceEntry("solve_fail", label, node.node_id))
            return None
        self.stats["solver_calls"] += 1
        engine = self._engine_for(target_key)
        compiled = self._compiled_for(fingerprint, target_key, constraint)
        with self.tracer.span("solve", target=label):
            result = engine.solve(
                constraint, encoding.variables, self._rng, compiled=compiled
            )
        self.stats[result.status.value] += 1
        if ledger.enabled:
            ledger.attempt(
                objective,
                node.node_id,
                result.status.value,
                result.stats.stage,
                "lite" if engine is self._lite_engine else "full",
                compiled is not None,
            )
        self._note_outcome(target_key, result.status is Status.SAT)
        if result.status is not Status.SAT:
            if (
                result.status is Status.UNSAT
                and result.stats.stage in CACHEABLE_UNSAT_STAGES
            ):
                self.cache.mark_dead(
                    fingerprint, target_key, counts_failure=True
                )
            if record:
                self.trace.append(TraceEntry("solve_fail", label, node.node_id))
            return None
        assert result.model is not None
        self.library.add(result.model)
        if record:
            self.trace.append(TraceEntry("solve_ok", label, node.node_id))
        return SolveTarget(node, branch, result.model)

    def _skip_dead(
        self,
        node: StateTreeNode,
        target_key,
        branch_label: Optional[str],
        objective: Optional[str] = None,
    ) -> bool:
        """Skip a (state, target) pair the cache knows is dead.

        The skip replicates everything the refuted attempt would have done
        to generator state: failure backoff advances iff the original
        refutation counted as a solver failure, and the process trace gets
        the same ``solve_fail`` row.  No RNG is consumed either way (the
        cached stages are draw-free), so a warm run stays bit-identical.
        """
        counts_failure = self.cache.dead_verdict(
            node.state.fingerprint(), target_key
        )
        if counts_failure is None:
            return False
        self.stats["verdict_skips"] += 1
        self._engine.metrics.note_skip("verdict")
        if objective is not None and self.ledger.enabled:
            self.ledger.skip(objective, "verdict")
        if counts_failure:
            self._note_outcome(target_key, False)
        if self.config.record_trace:
            self.trace.append(
                TraceEntry("solve_fail", branch_label, node.node_id)
            )
        return True

    def _compiled_for(self, fingerprint, target_key, constraint):
        """The cached solver-kernel bundle for this solve, or None.

        The one-step constraint is a pure function of (model, state
        fingerprint, target), so the compiled artifacts — and the
        contraction result they memoize — replay exactly on a repeat
        visit of the same (state, target) cell.  First visits return
        None (pure interpreter): most pairs are solved exactly once, and
        compiling for them costs more than it saves.
        """
        return self.cache.compiled_constraint(
            fingerprint,
            target_key,
            lambda: self._compiler.compile(constraint),
        )

    def _engine_for(self, target_key) -> SolverEngine:
        """Full-budget engine until a target has failed often; lite after."""
        failures = self._failures.get(target_key, 0)
        if failures >= self.config.failure_backoff_after:
            return self._lite_engine
        return self._engine

    def _note_outcome(self, target_key, sat: bool) -> None:
        if sat:
            self._failures.pop(target_key, None)
        else:
            self._failures[target_key] = self._failures.get(target_key, 0) + 1

    # ------------------------------------------------------------------
    # Algorithm 2: dynamic execution
    # ------------------------------------------------------------------

    def _dynamic_execute(self, target: Optional[SolveTarget]) -> Optional[TestCase]:
        if target is not None:
            start = target.node
            sequence = [target.input_data]
            origin = ORIGIN_SOLVER
        else:
            start = self.tree.random_node(self._rng)
            sequence = self._random_sequence()
            origin = ORIGIN_RANDOM
            self.stats["random_sequences"] += 1
        case, created_ids = self._execute_sequence(start, sequence, origin)
        if self.config.record_trace:
            self.trace.append(
                TraceEntry(
                    "random" if target is None else "exec",
                    target.branch.label
                    if target is not None and target.branch
                    else None,
                    (target.node.node_id if target is not None else None),
                    created_ids,
                    tuple(case.new_branch_ids) if case is not None else (),
                )
            )
        return case

    def _execute_sequence(
        self,
        start: StateTreeNode,
        sequence: List[Dict[str, object]],
        origin: str,
    ) -> Tuple[Optional[TestCase], Tuple[int, ...]]:
        """Algorithm 2's execution loop from a tree node.

        Children are appended to the state tree while it is below its size
        cap; past the cap the walk keeps executing (coverage still counts)
        without recording new nodes.  Returns the synthesized test case (or
        ``None`` when no new coverage appeared) plus the ids of the tree
        nodes the walk created.
        """
        self.simulator.set_state(start.get_state())
        current = [start]
        created_ids: List[int] = []
        ledger = self.ledger
        ledger.begin_case(origin)

        def on_step(index: int, new_branch_ids: Tuple[int, ...], _found: bool):
            self.stats["steps_executed"] += 1
            if ledger.enabled:
                for branch_id in new_branch_ids:
                    ledger.cover_branch(branch_id, index + 1)
            if len(self.tree) < self.config.max_tree_nodes:
                child = self.tree.add_child(
                    current[0], self.simulator.get_state(), sequence[index]
                )
                child.covered_branches = set(new_branch_ids)
                created_ids.append(child.node_id)
                current[0] = child

        on_obligations = None
        if ledger.enabled:
            def on_obligations(index: int, new_obligations: List[object]):
                for obligation in new_obligations:
                    ledger.cover_obligation(obligation, index + 1)

        outcome = self.simulator.run_sequence(
            sequence, on_step=on_step, on_obligations=on_obligations
        )
        if outcome.last_covering_step == 0:
            ledger.end_case(None)
            return None, tuple(created_ids)
        executed = [
            dict(step_input)
            for step_input in sequence[: outcome.last_covering_step]
        ]
        case = TestCase(
            inputs=start.path_inputs() + executed,
            origin=origin,
            new_branch_ids=list(outcome.new_branch_ids),
            timestamp=self._elapsed(),
        )
        self.suite.add(case)
        ledger.end_case(len(self.suite) - 1)
        self._case_hist.observe(float(len(executed)))
        self.timeline.append(
            TimelineEvent(
                t=case.timestamp,
                decision_coverage=self.collector.decision_coverage(),
                origin=origin,
                new_branches=len(outcome.new_branch_ids),
            )
        )
        return case, tuple(created_ids)

    def _random_sequence(self) -> List[Dict[str, object]]:
        length = self.config.random_sequence_length
        mix = self.config.fresh_input_mix
        sequence: List[Dict[str, object]] = []
        for _ in range(length):
            if self.library.is_empty or self._rng.random() < mix:
                sequence.append(random_input(self.compiled.inports, self._rng))
            else:
                sequence.append(self.library.random_input(self._rng))
        return sequence

    # ------------------------------------------------------------------
    # hybrid warm-up (Discussion-section variant)
    # ------------------------------------------------------------------

    def _random_warmup(self) -> None:
        """Pure random exploration before any solving (hybrid mode)."""
        deadline = self._start + min(
            self.config.random_warmup_s, self.config.budget_s
        )
        while self._clock() < deadline and not self._fully_covered():
            start = self.tree.random_node(self._rng)
            sequence = [
                random_input(self.compiled.inports, self._rng)
                for _ in range(self.config.random_sequence_length)
            ]
            before = self.stats["steps_executed"]
            self._execute_sequence(start, sequence, ORIGIN_RANDOM)
            self.stats["warmup_steps"] += self.stats["steps_executed"] - before

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------

    # -- warm-start store ----------------------------------------------

    def _store_load(self) -> Optional[Dict[str, object]]:
        """Warm-start from the store; returns the raw payload (or None).

        Runs before the budget clock starts.  Only the solve-cache folds
        are restored into the live run — they are observationally
        transparent, so the warm run stays bit-identical to a cold one.
        The full payload is returned for consumers with their own reuse
        story (the fuzz generators seed their corpus from it).  Any
        problem — missing file, digest mismatch, malformed folds —
        degrades to a cold start and counts ``store_rejected``; a store
        must never take a run down.
        """
        if self.store is None or not self.config.store.read:
            return None
        self.stats["store_reads"] += 1
        payload, status = self.store.load()
        if status != "hit":
            self.stats[
                "store_misses" if status == "miss" else "store_rejected"
            ] += 1
            return None
        folds = payload.get("cache")
        if folds is not None:
            try:
                counts = self.cache.restore_folds(folds)
            except Exception:
                # restore_folds stages all decodes before applying, so
                # the cache is untouched here — the run is simply cold.
                self.stats["store_rejected"] += 1
                return None
            self.stats["restored_verdicts"] += counts["verdicts"]
            self.stats["restored_markers"] += counts["markers"]
            self.stats["restored_snapshots"] += counts["snapshots"]
        self.stats["store_hits"] += 1
        self._store_snapshot = self._derived_sizes()
        return payload

    def _derived_sizes(self) -> tuple:
        """The skip-save fingerprint: sizes of the persisted cache folds."""
        return (self.cache.verdict_entries, len(self.cache.compiled))

    def _store_save(self, extra: Optional[Dict[str, object]] = None) -> None:
        """Persist this run's derived state; best-effort, never raises.

        A warm run that learned nothing — the same verdict count and
        compiled-LRU size as right after the restore, which a
        bit-identical equal-budget rerun always hits — skips the write:
        the stored document is already the fixed point, and skipping
        keeps the warm path's end-to-end cost at load + solve.  Runs
        with ``extra`` payloads (the fuzz corpus) always write.
        """
        if self.store is None or not self.config.store.write:
            return
        if extra is None and self._store_snapshot == self._derived_sizes():
            return
        try:
            payload: Dict[str, object] = {"cache": self.cache.export_folds()}
            if extra:
                payload.update(extra)
            if self.store.save(payload):
                self.stats["store_writes"] += 1
        except Exception:
            pass

    def _elapsed(self) -> float:
        return self._clock() - self._start

    def _out_of_time(self) -> bool:
        return self._elapsed() >= self.config.budget_s

    def _fully_covered(self) -> bool:
        remaining = [
            b for b in self.collector.uncovered_branches()
            if b.branch_id not in self.proven_dead
        ]
        return not remaining and not (
            self.collector.unsatisfied_condition_obligations()
        )

    def _done(self) -> bool:
        if self._out_of_time():
            return True
        return self.config.stop_on_full_coverage and self._fully_covered()


def generate(compiled: CompiledModel, config: Optional[StcgConfig] = None):
    """Convenience wrapper: run STCG on a compiled model."""
    return StcgGenerator(compiled, config).run()
