"""Dev harness: demand-driven one-step encodings vs. full symbolic steps.

For every registry model (plus the small CPUTask variant) this walks a
few random reachable states and, at each one, asks a fresh
``OneStepEncoding`` for every branch and obligation constraint in a
shuffled order.  Every answer must be structurally equal to the answer
of an encoding that first ran the whole step (``complete()``), and the
completed encoding must record exactly what ``execute_step`` records.
Exits non-zero on any mismatch.  Run:

    PYTHONPATH=src python devtools/encoding_check.py [model ...]
"""

import random
import sys
import time

from repro.coverage.collector import CoverageCollector
from repro.model.context import symbolic_context
from repro.model.executor import execute_step
from repro.model.inputs import random_input
from repro.model.simulator import Simulator
from repro.models.registry import BENCHMARKS, SIMPLE_CPUTASK
from repro.solver.encoder import OneStepEncoding


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


def check_model(model, seed=0):
    compiled = model.build()
    all_targets = targets(compiled)
    rng = random.Random(seed)
    mismatches = []
    started = time.perf_counter()
    states = reachable_states(compiled)
    for state in states:
        full = OneStepEncoding(compiled, state).complete()
        ctx = symbolic_context({v.name: v for v in full.variables}, state.values)
        execute_step(compiled, ctx)
        if (
            full._outcome_conditions != ctx.outcome_conditions
            or full._condition_atoms != ctx.condition_atoms
        ):
            mismatches.append((state.fingerprint(), "complete() != execute_step"))
        order = list(all_targets)
        rng.shuffle(order)
        lazy = OneStepEncoding(compiled, state)
        for target in order:
            if answer(lazy, target) != answer(full, target):
                mismatches.append((state.fingerprint(), target))
        if lazy.next_state_expressions() != full.next_state_expressions():
            mismatches.append((state.fingerprint(), "next state"))
    elapsed = time.perf_counter() - started
    print(
        f"{model.name:14s} states={len(states):2d} "
        f"targets={len(all_targets):4d} mismatches={len(mismatches)} "
        f"({elapsed:.2f}s)"
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
