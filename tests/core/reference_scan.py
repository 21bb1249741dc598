"""A naive Algorithm 1 scan, the reference for the generator's cursor scan.

The generator keeps ``SB`` as one cursor per target into the tree's
canonical-node list.  This reference keeps it the way the paper states
it: it walks *every* tree node, duplicates included, and skips a node
whose state fingerprint has already been tried for the target.  It calls
the same ``_out_of_time`` and ``_solve`` as the product, so a run under
it must be bit-identical to a run under the cursor scan.
"""

from operator import methodcaller

from repro.core.stcg import StcgGenerator


def reference_state_aware_solve(self):
    """Drop-in replacement for ``StcgGenerator._state_aware_solve``."""
    tried = vars(self).setdefault("_reference_tried", {})
    ledger = self.ledger
    for branch in self._branches:
        if self.collector.is_branch_covered(branch):
            continue
        if branch.branch_id in self.proven_dead:
            continue
        target_key = ("branch", branch.branch_id)
        objective = ledger.branch_objective(branch) if ledger.enabled else None
        path_constraint = methodcaller("path_constraint", branch)
        for node in self.tree:
            seen = tried.setdefault(node.state.fingerprint(), set())
            if target_key in seen:
                continue
            if self._out_of_time():
                return None
            seen.add(target_key)
            target = self._solve(
                node, target_key, objective, branch.label,
                path_constraint, branch,
            )
            if target is not None:
                return target
    for obligation in self.collector.unsatisfied_condition_obligations():
        target_key = ("obligation", obligation)
        objective = (
            ledger.obligation_objective(obligation) if ledger.enabled
            else None
        )
        obligation_constraint = methodcaller(
            "obligation_constraint", obligation
        )
        for node in self.tree:
            seen = tried.setdefault(node.state.fingerprint(), set())
            if target_key in seen:
                continue
            if self._out_of_time():
                return None
            seen.add(target_key)
            target = self._solve(
                node, target_key, objective, repr(obligation),
                obligation_constraint,
            )
            if target is not None:
                return target
    return None


def use_reference_scan(monkeypatch):
    """Make every generator in this test scan with the reference."""
    monkeypatch.setattr(
        StcgGenerator, "_state_aware_solve", reference_state_aware_solve
    )


def record_solves(monkeypatch):
    """Record ``(node_id, target_key)`` for every ``_solve`` call."""
    calls = []
    solve = StcgGenerator._solve

    def spy(self, node, target_key, *args, **kwargs):
        calls.append((node.node_id, target_key))
        return solve(self, node, target_key, *args, **kwargs)

    monkeypatch.setattr(StcgGenerator, "_solve", spy)
    return calls
