"""Dev harness: one-step encodings vs. full symbolic steps and the template.

For every registry model (plus the small CPUTask variant) this walks
about thirty random reachable states and runs two checks at each one,
both against one full symbolic ``execute_step`` from the state (the
reference step).

* encoder mode: a fresh ``OneStepEncoding`` is asked for every branch
  and obligation constraint in a shuffled order.  Every answer must be
  structurally equal to the answer read off the reference step, and a
  ``complete()`` encoding must record exactly what the reference step
  records.
* template mode: the model's step template, specialized to the state by
  ``substitute``, must give outcome conditions and condition atoms
  structurally equal to the reference step's (a point the step does not
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


def reachable_states(compiled, steps=60, samples=30, seed=5):
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


def reference_step(compiled, state):
    """The context of one full symbolic step from ``state``."""
    inputs = {v.name: v for v in compiled.input_variables()}
    ctx = symbolic_context(inputs, state.values)
    execute_step(compiled, ctx)
    return ctx


def reference_answer(compiled, ctx, target):
    """``target``'s constraint read off the reference step ``ctx``;
    ``false`` for a point the step does not record (unreachable)."""
    kind, payload = target
    if kind == "branch":
        conditions = ctx.outcome_conditions
        constraint = conditions[payload.decision.decision_id][payload.outcome]
        for ancestor in payload.ancestors():
            constraint = x.land(
                constraint,
                conditions[ancestor.decision.decision_id][ancestor.outcome],
            )
        return constraint
    recorded = ctx.condition_atoms.get(payload.point_id)
    if recorded is None:
        return x.FALSE
    atoms, context = recorded
    atom = atoms[payload.atom]
    constraint = x.land(context, atom if payload.polarity else x.lnot(atom))
    if payload.determining:
        point = compiled.registry.condition_point(payload.point_id)
        constraint = x.land(
            constraint, OneStepEncoding._derivative(point, atoms, payload.atom)
        )
    return constraint


def check_encoder(compiled, state, all_targets, rng):
    """A fresh encoding, asked in a shuffled order, vs. the reference step."""
    found = []
    ctx = reference_step(compiled, state)
    full = OneStepEncoding(compiled, state).complete()
    if (
        full._outcome_conditions != ctx.outcome_conditions
        or full._condition_atoms != ctx.condition_atoms
    ):
        found.append("complete() != execute_step")
    targets = list(all_targets)
    rng.shuffle(targets)
    fresh = OneStepEncoding(compiled, state)
    for target in targets:
        if answer(fresh, target) != reference_answer(compiled, ctx, target):
            found.append(target)
    return found


def check_template(compiled, state, all_targets, guards):
    """The specialized template vs. the reference step; guard soundness.

    Returns the mismatches and how many targets a guard refuted."""
    found = []
    template = compiled.step_template()
    ctx = reference_step(compiled, state)
    bindings = {path: x.lift(value) for path, value in state.values.items()}
    for decision_id, conditions in ctx.outcome_conditions.items():
        specialized = [
            substitute(c, bindings)
            for c in template.outcome_conditions.get(decision_id, ())
        ]
        if specialized != conditions:
            found.append(("outcome conditions", decision_id))
    for point_id, (atoms, context) in template.condition_atoms.items():
        context = substitute(context, bindings)
        recorded = ctx.condition_atoms.get(point_id)
        if recorded is None:
            if context != x.FALSE:
                found.append(("unrecorded point context", point_id))
        elif (
            [substitute(a, bindings) for a in atoms] != list(recorded[0])
            or context != recorded[1]
        ):
            found.append(("condition atoms", point_id))
    if ctx.condition_atoms.keys() - template.condition_atoms.keys():
        found.append("points missing from the template")
    refuted = 0
    for target in all_targets:
        if guards.refutes(guard_key(target), state):
            refuted += 1
            if reference_answer(compiled, ctx, target) != x.FALSE:
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
        for found in check_encoder(compiled, state, all_targets, rng):
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
