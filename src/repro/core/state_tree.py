"""The state tree (Definitions 3 and 4).

Every node holds a concretely reached model state, the one-step input that
produced it from its parent, the set of branches already *attempted* by the
solver on this state (``SB`` — attempted, whether or not a solution was
found, so Algorithm 1 never re-solves a pair), and the branches *covered*
while executing into this state (``CV``).

Nodes are deduplicated by state **fingerprint**
(:meth:`~repro.model.state.ModelState.fingerprint`): the first node to
reach a state value is its *canonical* node; later nodes with the same
fingerprint link to it instead of growing an independent subtree of solver
bookkeeping.  Duplicates still exist as tree nodes — their root paths are
distinct input sequences Algorithm 2 replays — but they share the
canonical node's solved-branch/obligation sets and are skipped by the
solver's scan (:meth:`StateTree.solve_nodes`).  The skip is exact, not a
heuristic: shared ``SB`` sets mean a duplicate can never be the first
unsolved node for any target, so the scan's outcome is bit-identical with
dedup on or off (``dedup=False`` keeps the full scan for A/B runs).
"""

from __future__ import annotations

import random
from typing import Dict, Iterator, List, Optional, Set

from repro.model.state import ModelState


class StateTreeNode:
    """One explored model state (Definition 3: ⟨P, S, IN, SB, CV⟩)."""

    __slots__ = (
        "node_id",
        "parent",
        "state",
        "input",
        "solved_branches",
        "solved_obligations",
        "covered_branches",
        "children",
        "canonical",
    )

    def __init__(
        self,
        node_id: int,
        parent: Optional["StateTreeNode"],
        state: ModelState,
        input_data: Optional[Dict[str, object]],
    ):
        self.node_id = node_id
        self.parent = parent
        self.state = state
        self.input = input_data
        self.solved_branches: Set[int] = set()
        self.solved_obligations: Set = set()
        self.covered_branches: Set[int] = set()
        self.children: List["StateTreeNode"] = []
        #: First tree node with this state fingerprint (self when unique).
        self.canonical: "StateTreeNode" = self

    # -- paper operations -------------------------------------------------------

    def is_solved(self, branch_id: int) -> bool:
        """Has the solver already been asked about this branch on this state?"""
        return branch_id in self.solved_branches

    def set_solved(self, branch_id: int) -> None:
        self.solved_branches.add(branch_id)

    def get_state(self) -> ModelState:
        return self.state

    @property
    def is_canonical(self) -> bool:
        """Is this the first node that reached its state value?"""
        return self.canonical is self

    # -- path utilities -------------------------------------------------------------

    def path_inputs(self) -> List[Dict[str, object]]:
        """Input sequence from the root to this node (a test case)."""
        inputs: List[Dict[str, object]] = []
        node: Optional[StateTreeNode] = self
        while node is not None and node.input is not None:
            inputs.append(node.input)
            node = node.parent
        inputs.reverse()
        return inputs

    def depth(self) -> int:
        level = 0
        node = self.parent
        while node is not None:
            level += 1
            node = node.parent
        return level

    def __repr__(self) -> str:
        return f"StateTreeNode#{self.node_id}(depth={self.depth()})"


class StateTree:
    """The explored-state tree (Definition 4).

    Nodes whose states are value-identical *share* their solved-branch and
    solved-obligation bookkeeping: ``solve(Model, Branch)`` depends only on
    the state value, so re-solving the same branch on a revisited state is
    the duplicate work the paper's ``isSolved`` check exists to avoid.
    Sharing (and the solver-scan dedup built on it) is keyed by the state's
    content fingerprint; one-step encodings are cached by the same key in
    :class:`~repro.cache.solve.SolveCache`.
    """

    def __init__(self, root_state: ModelState, dedup: bool = True):
        self._nodes: List[StateTreeNode] = []
        self._shared_solved: Dict[str, Set[int]] = {}
        self._shared_obligations: Dict[str, Set] = {}
        #: fingerprint -> canonical (first) node.
        self._canonical: Dict[str, StateTreeNode] = {}
        #: Nodes the solver scan visits: canonical-only under dedup.
        self._solve_nodes: List[StateTreeNode] = []
        self.dedup = dedup
        #: Nodes that linked to an existing canonical node instead of
        #: bringing their own solver bookkeeping.
        self.dedup_links = 0
        self.root = StateTreeNode(0, None, root_state, None)
        self._link_shared(self.root)
        self._nodes.append(self.root)

    def _link_shared(self, node: StateTreeNode) -> None:
        fingerprint = node.state.fingerprint()
        node.solved_branches = self._shared_solved.setdefault(fingerprint, set())
        node.solved_obligations = self._shared_obligations.setdefault(
            fingerprint, set()
        )
        first = self._canonical.get(fingerprint)
        if first is None:
            self._canonical[fingerprint] = node
            self._solve_nodes.append(node)
        else:
            node.canonical = first
            self.dedup_links += 1
            if not self.dedup:
                self._solve_nodes.append(node)

    def add_child(
        self,
        parent: StateTreeNode,
        state: ModelState,
        input_data: Dict[str, object],
    ) -> StateTreeNode:
        node = StateTreeNode(len(self._nodes), parent, state, dict(input_data))
        self._link_shared(node)
        parent.children.append(node)
        self._nodes.append(node)
        return node

    # -- queries --------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._nodes)

    def __iter__(self) -> Iterator[StateTreeNode]:
        return iter(self._nodes)

    def solve_nodes(self) -> Iterator[StateTreeNode]:
        """Nodes Algorithm 1 scans, in insertion order.

        Under dedup this yields one node per distinct state fingerprint
        (the canonical node); with ``dedup=False`` it yields every node,
        matching the naive scan.
        """
        return iter(self._solve_nodes)

    def unique_states(self) -> int:
        """Number of distinct state fingerprints in the tree."""
        return len(self._canonical)

    def node(self, node_id: int) -> StateTreeNode:
        return self._nodes[node_id]

    def random_node(self, rng: random.Random) -> StateTreeNode:
        return rng.choice(self._nodes)

    def leaves(self) -> List[StateTreeNode]:
        return [node for node in self._nodes if not node.children]

    def max_depth(self) -> int:
        return max(node.depth() for node in self._nodes)

    def find_by_state(self, state: ModelState) -> Optional[StateTreeNode]:
        """First node holding an identical state (duplicate detection)."""
        return self._canonical.get(state.fingerprint())

    def render(self, max_nodes: int = 64) -> str:
        """ASCII rendering (Figure 3(b) style)."""
        lines: List[str] = []

        def visit(node: StateTreeNode, prefix: str, is_last: bool) -> None:
            if len(lines) >= max_nodes:
                return
            connector = "" if node.parent is None else ("`-- " if is_last else "|-- ")
            covered = (
                f" covers={sorted(node.covered_branches)}"
                if node.covered_branches
                else ""
            )
            lines.append(f"{prefix}{connector}S{node.node_id}{covered}")
            child_prefix = prefix + (
                "" if node.parent is None else ("    " if is_last else "|   ")
            )
            for index, child in enumerate(node.children):
                visit(child, child_prefix, index == len(node.children) - 1)

        visit(self.root, "", True)
        if len(self._nodes) > max_nodes:
            lines.append(f"... ({len(self._nodes) - max_nodes} more nodes)")
        return "\n".join(lines)
