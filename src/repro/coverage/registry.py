"""Registry of instrumentation points: decisions, branches, condition points.

Mirrors the paper's Definition 1: a *model branch* is one outcome of a block
decision, with a parent branch (the enabling outcome of the enclosing
conditional context) and a depth (number of ancestor branches).  The registry
is populated at model-compile time and is immutable afterwards; both the
coverage collector (concrete runs) and the symbolic encoder (one-step
solving) refer to its ids.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.errors import CoverageError
from repro.expr.ast import Expr


class DecisionKind(enum.Enum):
    """What sort of block produced a decision."""

    SWITCH = "switch"
    MULTIPORT = "multiport_switch"
    IF = "if"
    SWITCH_CASE = "switch_case"
    TRANSITION = "transition"


@dataclass
class Decision:
    """A block decision with a fixed set of mutually exclusive outcomes."""

    decision_id: int
    path: str
    kind: DecisionKind
    outcome_labels: Tuple[str, ...]
    branches: List["Branch"] = field(default_factory=list)

    @property
    def n_outcomes(self) -> int:
        return len(self.outcome_labels)

    def __repr__(self) -> str:
        return f"Decision({self.path}, {self.kind.value}, {self.n_outcomes} outcomes)"


@dataclass
class Branch:
    """One outcome of a decision (the paper's model branch ⟨C, F, D⟩).

    ``C`` is not stored statically: the branch condition is produced per
    model state by the symbolic encoder.  ``parent`` is ``F``; ``depth``
    is ``D``.
    """

    branch_id: int
    decision: Decision
    outcome: int
    parent: Optional["Branch"]
    depth: int

    @property
    def label(self) -> str:
        return f"{self.decision.path}:{self.decision.outcome_labels[self.outcome]}"

    def ancestors(self) -> List["Branch"]:
        """Parent chain from nearest to root (excludes self)."""
        chain: List[Branch] = []
        node = self.parent
        while node is not None:
            chain.append(node)
            node = node.parent
        return chain

    def __repr__(self) -> str:
        return f"Branch#{self.branch_id}({self.label}, depth={self.depth})"


@dataclass
class ConditionPoint:
    """An MCDC-capable expression: a logic block or a transition guard.

    ``structure`` is a boolean expression over placeholder variables named
    ``c0 .. c{n-1}``; ``atom_labels`` documents what each placeholder is.
    Condition and MCDC coverage are computed from recorded placeholder
    vectors against this structure.
    """

    point_id: int
    path: str
    atom_labels: Tuple[str, ...]
    structure: Expr

    @property
    def n_atoms(self) -> int:
        return len(self.atom_labels)

    def __repr__(self) -> str:
        return f"ConditionPoint({self.path}, {self.n_atoms} atoms)"


class CoverageRegistry:
    """All instrumentation points of one compiled model."""

    def __init__(self):
        self._decisions: List[Decision] = []
        self._branches: List[Branch] = []
        self._points: List[ConditionPoint] = []
        self._frozen = False

    # -- registration (compile time) ----------------------------------------

    def register_decision(
        self,
        path: str,
        kind: DecisionKind,
        outcome_labels: Sequence[str],
        parent: Optional[Branch] = None,
        extra_depth: int = 0,
    ) -> Decision:
        """Add a decision; creates one :class:`Branch` per outcome.

        ``parent`` is the enabling branch of the enclosing conditional
        context (or None at top level).  ``extra_depth`` adds hierarchy that
        contributes depth without a branch of its own (chart state nesting).
        """
        self._check_mutable()
        if len(outcome_labels) < 2:
            raise CoverageError(f"decision at {path!r} needs >= 2 outcomes")
        decision = Decision(
            decision_id=len(self._decisions),
            path=path,
            kind=kind,
            outcome_labels=tuple(outcome_labels),
        )
        self._decisions.append(decision)
        depth = (parent.depth + 1 if parent is not None else 0) + extra_depth
        for outcome in range(decision.n_outcomes):
            branch = Branch(
                branch_id=len(self._branches),
                decision=decision,
                outcome=outcome,
                parent=parent,
                depth=depth,
            )
            decision.branches.append(branch)
            self._branches.append(branch)
        return decision

    def register_condition_point(
        self, path: str, atom_labels: Sequence[str], structure: Expr
    ) -> ConditionPoint:
        """Add a logic-block / transition-guard condition point."""
        self._check_mutable()
        if not atom_labels:
            raise CoverageError(f"condition point at {path!r} needs >= 1 atom")
        point = ConditionPoint(
            point_id=len(self._points),
            path=path,
            atom_labels=tuple(atom_labels),
            structure=structure,
        )
        self._points.append(point)
        return point

    def freeze(self) -> None:
        self._frozen = True

    def _check_mutable(self) -> None:
        if self._frozen:
            raise CoverageError("registry is frozen; model already compiled")

    # -- queries ---------------------------------------------------------------

    @property
    def decisions(self) -> Tuple[Decision, ...]:
        return tuple(self._decisions)

    @property
    def branches(self) -> Tuple[Branch, ...]:
        return tuple(self._branches)

    @property
    def condition_points(self) -> Tuple[ConditionPoint, ...]:
        return tuple(self._points)

    @property
    def n_branches(self) -> int:
        return len(self._branches)

    @property
    def n_condition_atoms(self) -> int:
        return sum(p.n_atoms for p in self._points)

    def decision(self, decision_id: int) -> Decision:
        return self._decisions[decision_id]

    def branch(self, branch_id: int) -> Branch:
        return self._branches[branch_id]

    def condition_point(self, point_id: int) -> ConditionPoint:
        return self._points[point_id]

    def branches_by_depth(self) -> List[Branch]:
        """Branches sorted ascending by depth (the paper's solving order)."""
        return sorted(self._branches, key=lambda b: (b.depth, b.branch_id))
