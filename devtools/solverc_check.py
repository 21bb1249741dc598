"""Dev harness: solverc equivalence + micro throughput comparison.

Not part of the test suite — run manually:
    PYTHONPATH=src python devtools/solverc_check.py [model ...]
"""

import random
import sys
import time

from repro.coverage.collector import CoverageCollector
from repro.model.inputs import random_input
from repro.model.simulator import Simulator
from repro.models.registry import BENCHMARKS, SIMPLE_CPUTASK
from repro.solver.encoder import OneStepEncoding
from repro.solver.engine import SolverConfig, SolverEngine
from repro.solverc import ConstraintCompiler


def gather_constraints(model, steps=40, seed=11):
    compiled = model.build()
    collector = CoverageCollector(compiled.registry)
    sim = Simulator(compiled, collector)
    rng = random.Random(seed)
    problems = []
    states = [sim.get_state()]
    for _ in range(steps):
        sim.step(random_input(compiled.inports, rng))
        states.append(sim.get_state())
    branches = list(compiled.registry.branches)
    for state in states[:: max(1, len(states) // 12)]:
        encoding = OneStepEncoding(compiled, state)
        for branch in branches:
            problems.append(
                (encoding.path_constraint(branch), encoding.variables)
            )
    return problems


def result_key(result):
    return (
        result.status,
        result.model,
        result.stats.stage,
        result.stats.samples,
        result.stats.avm_evaluations,
    )


def check_model(model):
    problems = gather_constraints(model)
    config = SolverConfig(max_samples=48, avm_evaluations=700,
                          time_budget_s=10.0)
    compiler = ConstraintCompiler()

    interp = SolverEngine(config)
    rng_i = random.Random(99)
    t0 = time.perf_counter()
    base = [
        result_key(interp.solve(c, v, rng_i)) for c, v in problems
    ]
    t_interp = time.perf_counter() - t0

    kern = SolverEngine(config)
    rng_k = random.Random(99)
    compiled_list = [compiler.compile(c) for c, _ in problems]
    t0 = time.perf_counter()
    fast = [
        result_key(kern.solve(c, v, rng_k, compiled=comp))
        for (c, v), comp in zip(problems, compiled_list)
    ]
    t_kern = time.perf_counter() - t0

    mismatches = [
        (i, a, b) for i, (a, b) in enumerate(zip(base, fast)) if a != b
    ]
    # Second kernel pass exercises the contract_result cache path.
    kern2 = SolverEngine(config)
    rng_k2 = random.Random(99)
    t0 = time.perf_counter()
    warm = [
        result_key(kern2.solve(c, v, rng_k2, compiled=comp))
        for (c, v), comp in zip(problems, compiled_list)
    ]
    t_warm = time.perf_counter() - t0
    warm_mismatch = sum(1 for a, b in zip(base, warm) if a != b)

    print(
        f"{model.name:12s} n={len(problems):4d} "
        f"interp={t_interp:6.3f}s kern={t_kern:6.3f}s "
        f"warm={t_warm:6.3f}s speedup={t_interp / t_kern:4.2f}x "
        f"warm-speedup={t_interp / t_warm:4.2f}x "
        f"mismatches={len(mismatches)} warm-mismatches={warm_mismatch}"
    )
    print("  ", {k: v for k, v in kern.solverc.counts.items() if v})
    print("  ", {k: v for k, v in compiler.stats.counts.items() if v})
    for i, a, b in mismatches[:3]:
        print("   MISMATCH", i)
        print("     interp:", a)
        print("     kernel:", b)
    return not mismatches and not warm_mismatch


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
