"""The state tree (Definitions 3 and 4).

Every node holds a concretely reached model state, the one-step input that
produced it from its parent, and the branches *covered* while executing
into this state (``CV``).

Nodes are deduplicated by state **fingerprint**
(:meth:`~repro.model.state.ModelState.fingerprint`): the first node to
reach a state value is its *canonical* node, and only canonical nodes
enter the append-only list the solver scans
(:meth:`StateTree.solve_nodes`).  Duplicates still exist as tree nodes —
their root paths are distinct input sequences Algorithm 2 replays — but
``solve(Model, Branch)`` depends only on the state value, so solving on a
duplicate would repeat its canonical node's attempt.

The paper's ``SB`` (targets already *attempted* on a state, whether or
not a solution was found, so Algorithm 1 never re-solves a pair) is not
kept per node: a target's attempts are always a prefix of the scan list,
so the generator keeps one cursor per target into it
(:meth:`repro.core.stcg.StcgGenerator._state_aware_solve`).
"""

from __future__ import annotations

import random
from typing import Dict, Iterator, List, Optional, Set

from repro.model.state import ModelState


class StateTreeNode:
    """One explored model state (Definition 3: ⟨P, S, IN, SB, CV⟩).

    ``SB`` lives in the generator as per-target cursors over
    :meth:`StateTree.solve_nodes`, not on the node.
    """

    __slots__ = (
        "node_id",
        "parent",
        "state",
        "input",
        "covered_branches",
        "children",
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
        self.covered_branches: Set[int] = set()
        self.children: List["StateTreeNode"] = []

    def get_state(self) -> ModelState:
        return self.state

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

    Algorithm 1 scans one node per distinct state: ``solve(Model,
    Branch)`` depends only on the state value, so solving on a revisited
    state is the duplicate work the paper's ``isSolved`` check exists to
    avoid.  The scan list is append-only, which is what lets ``SB`` be a
    per-target cursor into it.  It is keyed by the state's content
    fingerprint; one-step encodings are cached by the same key in
    :class:`~repro.cache.solve.SolveCache`.
    """

    def __init__(self, root_state: ModelState):
        self._nodes: List[StateTreeNode] = []
        #: Fingerprints already reached (their first node is canonical).
        self._fingerprints: Set[str] = set()
        #: Nodes the solver scan visits: the canonical ones, append-only.
        self._solve_nodes: List[StateTreeNode] = []
        #: Nodes whose state an earlier node already reached.
        self.dedup_links = 0
        self.root = StateTreeNode(0, None, root_state, None)
        self._link(self.root)
        self._nodes.append(self.root)

    def _link(self, node: StateTreeNode) -> None:
        fingerprint = node.state.fingerprint()
        if fingerprint in self._fingerprints:
            self.dedup_links += 1
        else:
            self._fingerprints.add(fingerprint)
            self._solve_nodes.append(node)

    def add_child(
        self,
        parent: StateTreeNode,
        state: ModelState,
        input_data: Dict[str, object],
    ) -> StateTreeNode:
        node = StateTreeNode(len(self._nodes), parent, state, dict(input_data))
        self._link(node)
        parent.children.append(node)
        self._nodes.append(node)
        return node

    # -- queries --------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._nodes)

    def __iter__(self) -> Iterator[StateTreeNode]:
        return iter(self._nodes)

    def solve_nodes(self) -> List[StateTreeNode]:
        """Nodes Algorithm 1 scans: one per distinct state fingerprint (the
        first to reach it), in insertion order.

        The live, append-only list, so a scan can index it; callers must
        not modify it.
        """
        return self._solve_nodes

    def unique_states(self) -> int:
        """Number of distinct state fingerprints in the tree."""
        return len(self._solve_nodes)

    def node(self, node_id: int) -> StateTreeNode:
        return self._nodes[node_id]

    def random_node(self, rng: random.Random) -> StateTreeNode:
        return rng.choice(self._nodes)

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
