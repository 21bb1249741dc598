"""Dev harness: one-step encodings vs. full symbolic steps and the template.

For every registry model (plus the small CPUTask variant) this walks a
few random reachable states and runs two checks at each one.

* demand mode: a fresh ``OneStepEncoding`` is asked for every branch
  and obligation constraint in a shuffled order.  Every answer must be
  structurally equal to the answer of an encoding that first ran the
  whole step (``complete()``), and the completed encoding must record
  exactly what ``execute_step`` records.
* template mode: the model's step template, specialized to the state by
  ``substitute``, must give outcome conditions and condition atoms
  structurally equal to ``complete()``'s (a point the encoding does not
  record must get a ``false`` context), and every state guard that
  evaluates false must belong to a target whose constraint is the
  constant ``false``.

Exits non-zero on any mismatch.  Run:

    PYTHONPATH=src python devtools/encoding_check.py [model ...]
"""

import random
import sys
import time

from repro.coverage.collector import CoverageCollector
from repro.expr import ops as x
from repro.expr.variables import substitute
from repro.model.context import symbolic_context
from repro.model.executor import execute_step
from repro.model.inputs import random_input
from repro.model.simulator import Simulator
from repro.models.registry import BENCHMARKS, SIMPLE_CPUTASK
from repro.solver.encoder import OneStepEncoding
from repro.solver.guards import StateGuards


def reachable_states(compiled, steps=30, samples=6, seed=5):
    sim = Simulator(compiled, CoverageCollector(compiled.registry))
    rng = random.Random(seed)
    states = [sim.get_state()]
    for _ in range(steps):
        sim.step(random_input(compiled.inports, rng))
        states.append(sim.get_state())
    return states[:: max(1, len(states) // samples)]


def targets(compiled):
    obligations = CoverageCollector(compiled.registry).all_condition_obligations()
    return [("branch", branch) for branch in compiled.registry.branches] + [
        ("obligation", obligation) for obligation in obligations
    ]


def answer(encoding, target):
    kind, payload = target
    if kind == "branch":
        return encoding.path_constraint(payload)
    return encoding.obligation_constraint(payload)


def guard_key(target):
    """The generator's target key for ``target``."""
    kind, payload = target
    return ("branch", payload.branch_id) if kind == "branch" else target


def check_demand(compiled, state, all_targets, rng):
    """Demand-driven answers vs. ``complete()`` vs. ``execute_step``."""
    found = []
    full = OneStepEncoding(compiled, state).complete()
    ctx = symbolic_context({v.name: v for v in full.variables}, state.values)
    execute_step(compiled, ctx)
    if (
        full._outcome_conditions != ctx.outcome_conditions
        or full._condition_atoms != ctx.condition_atoms
    ):
        found.append("complete() != execute_step")
    order = list(all_targets)
    rng.shuffle(order)
    lazy = OneStepEncoding(compiled, state)
    for target in order:
        if answer(lazy, target) != answer(full, target):
            found.append(target)
    if lazy.next_state_expressions() != full.next_state_expressions():
        found.append("next state")
    return found


def check_template(compiled, state, all_targets, guards):
    """The specialized template vs. ``complete()``; guard soundness.

    Returns the mismatches and how many targets a guard refuted."""
    found = []
    template = compiled.step_template()
    full = OneStepEncoding(compiled, state).complete()
    bindings = {path: x.lift(value) for path, value in state.values.items()}
    for decision_id, conditions in full._outcome_conditions.items():
        specialized = [
            substitute(c, bindings)
            for c in template.outcome_conditions.get(decision_id, ())
        ]
        if specialized != conditions:
            found.append(("outcome conditions", decision_id))
    for point_id, (atoms, context) in template.condition_atoms.items():
        context = substitute(context, bindings)
        recorded = full._condition_atoms.get(point_id)
        if recorded is None:
            if context != x.FALSE:
                found.append(("unrecorded point context", point_id))
        elif (
            [substitute(a, bindings) for a in atoms] != list(recorded[0])
            or context != recorded[1]
        ):
            found.append(("condition atoms", point_id))
    if full._condition_atoms.keys() - template.condition_atoms.keys():
        found.append("points missing from the template")
    refuted = 0
    for target in all_targets:
        if guards.refutes(guard_key(target), state):
            refuted += 1
            if answer(full, target) != x.FALSE:
                found.append(("unsound guard", target))
    return found, refuted


def check_model(model, seed=0):
    compiled = model.build()
    all_targets = targets(compiled)
    guards = StateGuards(compiled)
    rng = random.Random(seed)
    mismatches = []
    refuted = 0
    started = time.perf_counter()
    states = reachable_states(compiled)
    for state in states:
        for found in check_demand(compiled, state, all_targets, rng):
            mismatches.append((state.fingerprint(), found))
        found, count = check_template(compiled, state, all_targets, guards)
        mismatches.extend((state.fingerprint(), f) for f in found)
        refuted += count
    elapsed = time.perf_counter() - started
    print(
        f"{model.name:14s} states={len(states):2d} "
        f"targets={len(all_targets):4d} refuted={refuted:4d} "
        f"mismatches={len(mismatches)} ({elapsed:.2f}s)"
    )
    for fingerprint, target in mismatches[:3]:
        print(f"   MISMATCH state {fingerprint[:12]}: {target!r}")
    return not mismatches


def main():
    names = set(sys.argv[1:])
    models = list(BENCHMARKS) + [SIMPLE_CPUTASK]
    if names:
        models = [m for m in models if m.name in names]
    ok = True
    for model in models:
        ok = check_model(model) and ok
    print("OK" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
