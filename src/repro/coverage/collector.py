"""Coverage collection during concrete simulation.

Besides the three metrics, the collector tracks *obligations* — the unit
targets STCG solves for:

* a **branch** obligation per decision outcome (Definition 1),
* a **value** obligation per condition atom and polarity (condition
  coverage needs each atom observed both true and false),
* an **mcdc** obligation per condition atom and polarity: the atom must be
  observed at that polarity *while determining the decision outcome*
  (boolean-derivative check), which is what a masking-MCDC independence
  pair is made of.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

from repro.coverage.mcdc import determines, mcdc_covered_atoms
from repro.coverage.registry import Branch, ConditionPoint, CoverageRegistry

Vector = Tuple[bool, ...]


@dataclass(frozen=True)
class ConditionObligation:
    """One atom-level target: observe ``atom == polarity`` at this point,
    optionally while the atom determines the outcome (``determining``)."""

    point_id: int
    atom: int
    polarity: bool
    determining: bool

    def __repr__(self) -> str:
        kind = "mcdc" if self.determining else "value"
        return (
            f"Obligation({kind} p{self.point_id}.c{self.atom}="
            f"{'T' if self.polarity else 'F'})"
        )


class CoverageCollector:
    """Accumulates decision outcomes and condition vectors across runs.

    One collector typically lives for a whole test-generation campaign; the
    simulator reports events into it every step.  ``new_coverage`` style
    queries let the generator detect progress (Algorithm 2's ``newCover``).
    """

    def __init__(self, registry: CoverageRegistry):
        self._registry = registry
        self._covered_branches: Set[int] = set()
        #: Per point id, the vectors seen at that point.
        self._vectors: List[Set[Vector]] = [
            set() for _ in registry.condition_points
        ]
        self._atom_values: Dict[Tuple[int, int], Set[bool]] = {}
        self._det_seen: Set[Tuple[int, int, bool]] = set()

    # -- event intake ---------------------------------------------------------

    def on_branch(self, branch: Branch) -> bool:
        """Record a taken branch; returns True when it is newly covered."""
        if branch.branch_id in self._covered_branches:
            return False
        self._covered_branches.add(branch.branch_id)
        return True

    def on_condition_vector(
        self, point: ConditionPoint, vector: Vector
    ) -> List[ConditionObligation]:
        """Record the evaluated condition atoms of a logic block / guard.

        Returns the condition obligations newly satisfied by this vector
        (empty when the vector was seen before).
        """
        vector = tuple(bool(v) for v in vector)
        seen = self._vectors[point.point_id]
        newly: List[ConditionObligation] = []
        if vector in seen:
            return newly
        seen.add(vector)
        for index, value in enumerate(vector):
            values = self._atom_values.setdefault((point.point_id, index), set())
            if value not in values:
                values.add(value)
                newly.append(
                    ConditionObligation(point.point_id, index, value, False)
                )
            if determines(point, vector, index):
                key = (point.point_id, index, value)
                if key not in self._det_seen:
                    self._det_seen.add(key)
                    newly.append(
                        ConditionObligation(point.point_id, index, value, True)
                    )
        return newly

    def seen_sets(self) -> Tuple[Set[int], List[Set[Vector]]]:
        """The live covered-branch set and, indexed by point id, the live
        set of vectors seen at each point: an event found in them is one
        ``on_branch`` / ``on_condition_vector`` would report as not new."""
        return self._covered_branches, self._vectors

    # -- queries ---------------------------------------------------------------

    @property
    def registry(self) -> CoverageRegistry:
        return self._registry

    @property
    def covered_branch_ids(self) -> Set[int]:
        return set(self._covered_branches)

    def is_branch_covered(self, branch: Branch) -> bool:
        return branch.branch_id in self._covered_branches

    def uncovered_branches(self) -> List[Branch]:
        return [
            b
            for b in self._registry.branches
            if b.branch_id not in self._covered_branches
        ]

    def vectors_for(self, point: ConditionPoint) -> Set[Vector]:
        return set(self._vectors[point.point_id])

    # -- obligations --------------------------------------------------------------

    def all_condition_obligations(self) -> List[ConditionObligation]:
        """Every value/mcdc obligation of the model, value ones first."""
        obligations: List[ConditionObligation] = []
        for determining in (False, True):
            for point in self._registry.condition_points:
                for atom in range(point.n_atoms):
                    for polarity in (True, False):
                        obligations.append(
                            ConditionObligation(
                                point.point_id, atom, polarity, determining
                            )
                        )
        return obligations

    def is_obligation_satisfied(self, obligation: ConditionObligation) -> bool:
        if obligation.determining:
            return (
                obligation.point_id,
                obligation.atom,
                obligation.polarity,
            ) in self._det_seen
        values = self._atom_values.get((obligation.point_id, obligation.atom))
        return values is not None and obligation.polarity in values

    def unsatisfied_condition_obligations(self) -> List[ConditionObligation]:
        return [
            o for o in self.all_condition_obligations()
            if not self.is_obligation_satisfied(o)
        ]

    # -- metrics ---------------------------------------------------------------

    def decision_coverage(self) -> float:
        """Fraction of decision outcomes (branches) executed."""
        total = self._registry.n_branches
        if total == 0:
            return 1.0
        return len(self._covered_branches) / total

    def condition_coverage(self) -> float:
        """Fraction of condition outcomes (each atom counts true + false)."""
        total = 2 * self._registry.n_condition_atoms
        if total == 0:
            return 1.0
        seen = 0
        for point in self._registry.condition_points:
            for index in range(point.n_atoms):
                seen += len(self._atom_values.get((point.point_id, index), ()))
        return seen / total

    def mcdc_coverage(self) -> float:
        """Fraction of condition atoms with a masking-MCDC independence pair."""
        total = self._registry.n_condition_atoms
        if total == 0:
            return 1.0
        covered = 0
        for point in self._registry.condition_points:
            vectors = self._vectors[point.point_id]
            if not vectors:
                continue
            covered += len(mcdc_covered_atoms(point, vectors))
        return covered / total

    def summary(self) -> "CoverageSummary":
        return CoverageSummary(
            decision=self.decision_coverage(),
            condition=self.condition_coverage(),
            mcdc=self.mcdc_coverage(),
            covered_branches=len(self._covered_branches),
            total_branches=self._registry.n_branches,
        )

    def fork(self) -> "CoverageCollector":
        """Deep copy, for what-if executions that must not pollute this one."""
        clone = CoverageCollector(self._registry)
        clone._covered_branches.update(self._covered_branches)
        for vectors, seen in zip(clone._vectors, self._vectors):
            vectors.update(seen)
        clone._atom_values = {k: set(v) for k, v in self._atom_values.items()}
        clone._det_seen = set(self._det_seen)
        return clone


class CoverageSummary:
    """Immutable snapshot of the three coverage metrics."""

    __slots__ = ("decision", "condition", "mcdc", "covered_branches", "total_branches")

    def __init__(self, decision, condition, mcdc, covered_branches, total_branches):
        self.decision = decision
        self.condition = condition
        self.mcdc = mcdc
        self.covered_branches = covered_branches
        self.total_branches = total_branches

    def as_dict(self) -> Dict[str, float]:
        return {
            "decision": self.decision,
            "condition": self.condition,
            "mcdc": self.mcdc,
        }

    def __repr__(self) -> str:
        return (
            f"CoverageSummary(decision={self.decision:.1%}, "
            f"condition={self.condition:.1%}, mcdc={self.mcdc:.1%})"
        )
