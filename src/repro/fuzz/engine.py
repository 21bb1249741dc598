"""The fuzz campaign loop and the ``Fuzz``/``Hybrid`` generators.

Both generators compose over a host :class:`~repro.core.stcg.StcgGenerator`
rather than duplicating its plumbing: the host owns the simulator,
coverage collector, provenance ledger, state tree, suite and stats, so a
fuzz-discovered test case is a first-class :class:`TestCase` with
first-cover provenance like any solver- or random-origin case.

Determinism contract (pinned by the tier-1 suite):

* The campaign budget is **count-based** (``FuzzConfig.executions``); a
  wall-clock deadline only bounds it from above.
* All fuzz randomness comes from one :class:`random.Random` seeded by
  :func:`derive_fuzz_seed` — a SHA-256 domain separation of the master
  seed, so the fuzz stream never perturbs STCG's ``random.Random(seed)``
  generator stream (RNG-stream isolation, see DESIGN.md).
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from dataclasses import replace
from typing import Callable, Dict, List, Optional, Sequence

from repro.core.config import FuzzConfig, StcgConfig
from repro.core.result import GenerationResult, ORIGIN_FUZZ, TimelineEvent
from repro.core.stcg import StcgGenerator
from repro.core.testcase import TestCase
from repro.errors import ReproError
from repro.fuzz.corpus import Corpus
from repro.fuzz.mutators import SequenceMutator
from repro.model.graph import CompiledModel
from repro.model.inputs import piecewise_constant_sequence, random_sequence
from repro.provenance import (
    NULL_LEDGER,
    ProvenanceLedger,
    branch_objective_id,
    obligation_objective_id,
)

__all__ = [
    "FuzzCampaign",
    "FuzzGenerator",
    "HybridGenerator",
    "derive_fuzz_seed",
]

Step = Dict[str, object]


def derive_fuzz_seed(master_seed: int) -> int:
    """Domain-separated fuzz RNG seed (docs: RNG-stream isolation).

    Mirrors :func:`repro.exec.cells.derive_seed`: SHA-256 over a tagged
    string, folded to 63 bits.  The fuzz stream is therefore a pure
    function of the master seed but statistically unrelated to STCG's
    ``random.Random(master_seed)`` stream.
    """
    digest = hashlib.sha256(f"repro.fuzz|{master_seed}".encode()).digest()
    return int.from_bytes(digest[:8], "big") & (2**63 - 1)


class FuzzCampaign:
    """One coverage-guided mutational campaign over a host generator.

    ``targets`` (hybrid mode) restricts the campaign's goal: it stops as
    soon as every listed objective id is covered.  ``feedback`` records
    the per-step states of covering candidates and grafts them into the
    host's state tree (capped by ``FuzzConfig.feedback_nodes``), which is
    what the hybrid's second solver pass searches.
    """

    def __init__(
        self,
        gen: StcgGenerator,
        config: FuzzConfig,
        *,
        rng: random.Random,
        targets: Optional[Sequence[str]] = None,
        feedback: bool = False,
        deadline: Optional[float] = None,
    ) -> None:
        self.gen = gen
        self.config = config
        self.rng = rng
        self.corpus = Corpus()
        self.mutator = SequenceMutator(
            gen.compiled.inports, rng, config.max_sequence_length
        )
        self.targets = None if targets is None else set(targets)
        self.targets_left = set(self.targets or ())
        self.feedback = feedback
        self.deadline = deadline
        self.executions = 0
        self.retained = 0
        self.seed_entries = 0
        self.fuzz_steps = 0
        self.tree_nodes_fed = 0

    # -- seeding ----------------------------------------------------------------

    def seed_from_suite(self, suite) -> None:
        """Seed the corpus from a finished suite's cases, without re-execution.

        Each case earned its place in its original run (non-empty
        ``new_branch_ids``), so it is admitted unconditionally with the
        branch objectives it first covered as its corpus key.
        """
        registry = self.gen.compiled.registry
        for case in suite:
            objectives = [
                branch_objective_id(registry.branch(branch_id))
                for branch_id in case.new_branch_ids
            ]
            self.corpus.add_seed(case.inputs, objectives, origin="suite")
            self.seed_entries += 1

    def seed_random(self, count: int) -> None:
        """Self-seed: random + SimCoTest-style piecewise-constant signals.

        Used by standalone campaigns that have no suite to start from.
        Seed executions draw from the campaign's execution budget.
        """
        inports = self.gen.compiled.inports
        length = self.config.max_sequence_length
        for index in range(count):
            if self._exhausted():
                break
            if index % 2 == 0:
                sequence = piecewise_constant_sequence(
                    inports, self.rng, length
                )
            else:
                sequence = random_sequence(inports, self.rng, length)
            covered = self._execute(sequence)
            entry = self.corpus.consider(sequence, covered, origin="seed")
            if entry is not None:
                self.retained += 1
                self.seed_entries += 1

    # -- the campaign loop ------------------------------------------------------

    def run(self) -> None:
        """Mutate, execute, retain — until a budget or the goal is hit."""
        inports = self.gen.compiled.inports
        while not self._exhausted():
            if self.corpus.size == 0:
                op = "random"
                parent = None
                sequence = random_sequence(
                    inports, self.rng, self.config.max_sequence_length
                )
            else:
                parent = self.corpus.pick(self.rng)
                other = (
                    self.corpus.pick(self.rng)
                    if self.corpus.size > 1
                    else None
                )
                op, sequence = self.mutator.mutate(
                    parent.sequence,
                    other.sequence if other is not None else None,
                )
            covered = self._execute(sequence)
            entry = self.corpus.consider(
                sequence,
                covered,
                origin=op,
                parent_id=parent.entry_id if parent is not None else None,
            )
            if entry is not None:
                self.retained += 1

    def _exhausted(self) -> bool:
        if self.executions >= self.config.executions:
            return True
        if self.deadline is not None and self.gen._clock() >= self.deadline:
            return True
        if self.targets is not None:
            return not self.targets_left
        return self.gen.config.stop_on_full_coverage and self.gen._fully_covered()

    # -- candidate execution ----------------------------------------------------

    def _execute(self, sequence: Sequence[Step]) -> List[str]:
        """Run one candidate from the initial state; return its new coverage.

        The twin of :meth:`StcgGenerator._execute_sequence`, with two
        differences: it reports the covered **objective ids** (the corpus
        key) and it grafts covering states into the state tree only in
        feedback mode, under its own cap.
        """
        gen = self.gen
        simulator = gen.simulator
        registry = gen.compiled.registry
        ledger = gen.ledger
        simulator.set_state(gen.tree.root.get_state())
        ledger.begin_case(ORIGIN_FUZZ)
        covered: List[str] = []
        chain: List[tuple] = []
        feedback = self.feedback

        def on_step(index: int, new_branch_ids, _found: bool):
            gen.stats["steps_executed"] += 1
            self.fuzz_steps += 1
            for branch_id in new_branch_ids:
                covered.append(
                    branch_objective_id(registry.branch(branch_id))
                )
                if ledger.enabled:
                    ledger.cover_branch(branch_id, index + 1)
            if feedback:
                chain.append((simulator.get_state(), new_branch_ids))

        def on_obligations(index: int, new_obligations):
            for obligation in new_obligations:
                covered.append(obligation_objective_id(registry, obligation))
                if ledger.enabled:
                    ledger.cover_obligation(obligation, index + 1)

        outcome = simulator.run_sequence(
            sequence, on_step=on_step, on_obligations=on_obligations
        )
        self.executions += 1
        if outcome.last_covering_step == 0:
            ledger.end_case(None)
            return covered
        executed = [
            dict(step) for step in sequence[: outcome.last_covering_step]
        ]
        case = TestCase(
            inputs=executed,
            origin=ORIGIN_FUZZ,
            new_branch_ids=list(outcome.new_branch_ids),
            timestamp=gen._elapsed(),
        )
        gen.suite.add(case)
        ledger.end_case(len(gen.suite) - 1)
        gen._case_hist.observe(float(len(executed)))
        gen.timeline.append(
            TimelineEvent(
                t=case.timestamp,
                decision_coverage=gen.collector.decision_coverage(),
                origin=ORIGIN_FUZZ,
                new_branches=len(outcome.new_branch_ids),
            )
        )
        if self.targets is not None:
            self.targets_left.difference_update(covered)
        if feedback and covered:
            self._feed_tree(sequence, chain)
        return covered

    def _feed_tree(self, sequence: Sequence[Step], chain: List[tuple]) -> None:
        """Graft a covering candidate's state chain into the host tree.

        Termination is structural: the graft is bounded both by the
        host's ``max_tree_nodes`` cap and the campaign's
        ``feedback_nodes`` cap, and only candidates with new coverage
        feed back — so the solver-pass → fuzz → solver-pass loop cannot
        grow the tree unboundedly (see DESIGN.md, "Feedback loop
        termination").
        """
        gen = self.gen
        parent = gen.tree.root
        for (state, branch_ids), step in zip(chain, sequence):
            if len(gen.tree) >= gen.config.max_tree_nodes:
                break
            if self.tree_nodes_fed >= self.config.feedback_nodes:
                break
            child = gen.tree.add_child(parent, state, step)
            child.covered_branches = set(branch_ids)
            self.tree_nodes_fed += 1
            parent = child

    # -- stats ------------------------------------------------------------------

    def stats_dict(self) -> Dict[str, object]:
        """The deterministic ``fuzz_*`` counters merged into run stats."""
        stats: Dict[str, object] = {
            "fuzz_executions": self.executions,
            "fuzz_retained": self.retained,
            "fuzz_rejected": self.corpus.rejected,
            "fuzz_corpus_size": self.corpus.size,
            "fuzz_seed_entries": self.seed_entries,
            "fuzz_steps": self.fuzz_steps,
            "fuzz_tree_nodes": self.tree_nodes_fed,
        }
        if self.targets is not None:
            stats["fuzz_targets"] = len(self.targets)
            stats["fuzz_targets_covered"] = len(self.targets) - len(
                self.targets_left
            )
        return stats


def _write_corpus(campaign: FuzzCampaign, path: str) -> None:
    """Export the retained corpus (``FuzzConfig.corpus_out``)."""
    if path:
        with open(path, "w") as handle:
            handle.write(campaign.corpus.to_json())
            handle.write("\n")


def _seed_from_corpus(
    campaign: FuzzCampaign, corpus: Corpus, origin: str
) -> int:
    """Replay a persisted corpus's entries as campaign seeds.

    Admitted via ``add_seed`` (unconditional retention) in stored order,
    without re-execution — each entry earned its objectives in the run
    that retained it.  Seeding changes which parents the campaign can
    pick, so a corpus-seeded campaign is deliberately *not* bit-identical
    to an unseeded one: corpus reuse amortizes discovery across runs
    (see DESIGN.md, "Store integrity and invalidation").
    """
    for entry in corpus.entries:
        campaign.corpus.add_seed(
            entry.sequence, entry.objectives, origin=origin
        )
        campaign.seed_entries += 1
    return len(corpus.entries)


def _seed_campaign(
    campaign: FuzzCampaign,
    host: StcgGenerator,
    config: StcgConfig,
    payload: Optional[Dict[str, object]],
) -> None:
    """Apply both external corpus sources to a fresh campaign.

    ``fuzz.corpus_in`` (user-named file) fails loudly on any problem;
    the warm-start store payload fails soft (it is best-effort by
    contract) and counts ``store_rejected`` instead.
    """
    if config.fuzz.corpus_in:
        path = config.fuzz.corpus_in
        try:
            with open(path, "r") as handle:
                corpus = Corpus.from_json(handle.read())
        except ReproError:
            raise
        except Exception as error:
            raise ReproError(
                f"cannot read fuzz corpus {path!r}: {error}"
            ) from error
        _seed_from_corpus(campaign, corpus, "import")
    if payload is not None and payload.get("corpus") is not None:
        try:
            corpus = Corpus.from_json(json.dumps(payload["corpus"]))
        except Exception:
            host.stats["store_rejected"] += 1
        else:
            host.stats["corpus_seeds"] += _seed_from_corpus(
                campaign, corpus, "store"
            )


class FuzzGenerator:
    """The standalone ``tool="Fuzz"`` baseline: pure mutational fuzzing.

    Never calls the solver.  Self-seeds the corpus (random +
    piecewise-constant signals), then mutates until the execution count
    or the wall budget runs out.
    """

    def __init__(
        self,
        compiled: CompiledModel,
        config: Optional[StcgConfig] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.config = config or StcgConfig()
        self._host = StcgGenerator(compiled, self.config, clock=clock)
        if self._host.store is not None:
            self._host.store.scope = f"Fuzz|seed={self.config.seed}"
        if self.config.provenance:
            self._host.ledger = ProvenanceLedger(compiled.registry, "Fuzz")
        else:
            self._host.ledger = NULL_LEDGER

    def run(self) -> GenerationResult:
        host = self._host
        payload = host._store_load()
        host._start = host._clock()
        campaign = FuzzCampaign(
            host,
            self.config.fuzz,
            rng=random.Random(derive_fuzz_seed(self.config.seed)),
            deadline=host._start + self.config.budget_s,
        )
        _seed_campaign(campaign, host, self.config, payload)
        campaign.seed_random(self.config.fuzz.seed_sequences)
        campaign.run()
        _write_corpus(campaign, self.config.fuzz.corpus_out)
        wall = host._elapsed()
        host.stats.update(campaign.stats_dict())
        host.stats["fuzz_wall_s"] = round(wall, 6)
        if host.store is not None:
            host._store_save(
                extra={"corpus": json.loads(campaign.corpus.to_json())}
            )
        return host._result("Fuzz")


class HybridGenerator:
    """The ``tool="Hybrid"`` pipeline: STCG → targeted fuzz → STCG.

    Phase 1 runs the pure STCG loop for ``hybrid_split`` of the budget.
    The objectives it leaves uncovered — read straight off the live
    ledger/collector — become the fuzz targets of phase 2, whose corpus
    is seeded from the phase-1 suite and whose covering states are fed
    back into the state tree.  Phase 3 resumes the solver loop over the
    enriched tree for the remaining budget.

    The hybrid can only add coverage on top of phase 1's: the collector,
    suite and tree are shared and strictly monotone, which is what pins
    "never regress pure STCG" — at equal budget the phase-1 prefix is
    the same algorithm, and phases 2–3 only ever cover more.
    """

    def __init__(
        self,
        compiled: CompiledModel,
        config: Optional[StcgConfig] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.config = config or StcgConfig()
        self._host = StcgGenerator(compiled, self.config, clock=clock)
        if self._host.store is not None:
            self._host.store.scope = f"Hybrid|seed={self.config.seed}"
        if self.config.provenance:
            self._host.ledger = ProvenanceLedger(compiled.registry, "Hybrid")
        else:
            self._host.ledger = NULL_LEDGER

    def run(self) -> GenerationResult:
        host = self._host
        total = self.config.budget_s
        payload = host._store_load()
        host._start = host._clock()
        # Phase 1: the pure STCG loop on a budget slice.
        host.config = replace(
            self.config, budget_s=total * self.config.fuzz.hybrid_split
        )
        self._solver_loop(host)
        targets = self._uncovered_objectives(host)
        # Phases 2+3 share the remaining wall budget.
        host.config = replace(self.config, budget_s=total)
        campaign = FuzzCampaign(
            host,
            self.config.fuzz,
            rng=random.Random(derive_fuzz_seed(self.config.seed)),
            targets=targets,
            feedback=True,
            deadline=host._start + total,
        )
        campaign.seed_from_suite(host.suite)
        _seed_campaign(campaign, host, self.config, payload)
        if targets:
            campaign.run()
            # Phase 3: another solver pass over the fuzz-fed state tree.
            self._solver_loop(host)
        _write_corpus(campaign, self.config.fuzz.corpus_out)
        wall = host._elapsed()
        host.stats.update(campaign.stats_dict())
        host.stats["fuzz_wall_s"] = round(wall, 6)
        if host.store is not None:
            host._store_save(
                extra={"corpus": json.loads(campaign.corpus.to_json())}
            )
        return host._result("Hybrid")

    @staticmethod
    def _solver_loop(host: StcgGenerator) -> None:
        """The body of :meth:`StcgGenerator.run`, against the live budget."""
        while not host._done():
            target = host._state_aware_solve()
            if host._out_of_time():
                break
            host._dynamic_execute(target)
            if target is None:
                for _ in range(host.config.random_batch - 1):
                    if host._done():
                        break
                    host._dynamic_execute(None)

    @staticmethod
    def _uncovered_objectives(host: StcgGenerator) -> List[str]:
        """Objective ids still uncovered, straight off the live collector."""
        registry = host.compiled.registry
        ids = [
            branch_objective_id(branch)
            for branch in host.collector.uncovered_branches()
            if branch.branch_id not in host.proven_dead
        ]
        ids.extend(
            obligation_objective_id(registry, obligation)
            for obligation in host.collector.unsatisfied_condition_obligations()
        )
        return ids
