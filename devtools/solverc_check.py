"""Dev harness: solverc equivalence + micro throughput comparison.

For every registry model it checks that

* compiled solves equal interpreted solves on the model's one-step
  constraints, and
* the generated distance objective (``solverc.distc.generate_distance``)
  returns, bit for bit, what the closure and ``DistanceEvaluator``
  return (or raises what they raise), on the one-step constraints and on
  the depth-3 SLDV unrollings, whole constraints and split cases.  It
  prints the per-call time of each of the three.

Not part of the test suite — run manually; exits 1 on any mismatch:
    PYTHONPATH=src python devtools/solverc_check.py [model ...]
"""

import random
import struct
import sys
import time

from repro.baselines.sldv import _IncrementalUnroll
from repro.coverage.collector import CoverageCollector
from repro.expr.ast import Const
from repro.expr.distance import DistanceEvaluator
from repro.expr.nnf import to_nnf
from repro.model.inputs import random_input
from repro.model.simulator import Simulator
from repro.models.registry import BENCHMARKS, SIMPLE_CPUTASK
from repro.solver.box import Box
from repro.solver.encoder import OneStepEncoding
from repro.solver.engine import SolverConfig, SolverEngine
from repro.solver.sampler import sample_point
from repro.solver.splitter import split_cases
from repro.solverc import ConstraintCompiler
from repro.solverc.distc import compile_distance_scalar, generate_distance

#: Unroll depth of the SLDV constraints the objectives are checked on.
SLDV_DEPTH = 3
#: Random points each objective is evaluated at.
POINTS = 40


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


def sldv_constraints(model, depth=SLDV_DEPTH):
    """(constraint, variables) of every branch at every step of the
    model's depth-``depth`` SLDV unrolling."""
    compiled = model.build()
    unroll = _IncrementalUnroll(compiled)
    problems = []
    for step in range(depth):
        unroll.extend()
        for branch in compiled.registry.branches:
            constraint = unroll.path_constraint(branch, step)
            if not isinstance(constraint, Const):
                problems.append((constraint, list(unroll.variables)))
    return problems


def _outcome(function, env):
    """A distance's bits, or the exception it raised."""
    try:
        return struct.pack("<d", function(env))
    except Exception as exc:
        return type(exc), str(exc)


def _timed(function, envs):
    start = time.perf_counter()
    for env in envs:
        try:
            function(env)
        except Exception:
            pass
    return time.perf_counter() - start


def check_objectives(label, problems, seed=5):
    """Generated objective vs closure vs interpreter on every constraint
    of ``problems`` and each of its split cases."""
    rng = random.Random(seed)
    seconds = {"generated": 0.0, "closure": 0.0, "interpreter": 0.0}
    calls = mismatches = objectives = 0
    for constraint, variables in problems:
        nnf = to_nnf(constraint)
        cases = split_cases(nnf)
        box = Box(list({var.name: var for var in variables}.values()))
        envs = [sample_point(box, rng) for _ in range(POINTS)]
        for case in [nnf] + (cases if len(cases) > 1 else []):
            case_nnf = to_nnf(case)
            closure = compile_distance_scalar(case_nnf)
            functions = {
                "generated": generate_distance(case_nnf, closure),
                "closure": closure,
                "interpreter": DistanceEvaluator(case_nnf).distance,
            }
            objectives += 1
            calls += len(envs)
            for env in envs:
                outcomes = {
                    _outcome(function, env) for function in functions.values()
                }
                if len(outcomes) > 1:
                    mismatches += 1
                    if mismatches <= 3:
                        print("   MISMATCH", label, outcomes)
            for name, function in functions.items():
                seconds[name] += _timed(function, envs)
    per_call = " ".join(
        f"{name}={seconds[name] / max(calls, 1) * 1e6:7.2f}us"
        for name in seconds
    )
    print(
        f"{label:22s} objectives={objectives:4d} calls={calls:6d} "
        f"{per_call} mismatches={mismatches}"
    )
    return not mismatches


def main():
    names = set(sys.argv[1:])
    models = list(BENCHMARKS) + [SIMPLE_CPUTASK]
    if names:
        models = [m for m in models if m.name in names]
    ok = True
    for model in models:
        ok = check_model(model) and ok
    for model in models:
        ok = check_objectives(
            f"{model.name} one-step", gather_constraints(model)
        ) and ok
        ok = check_objectives(
            f"{model.name} sldv{SLDV_DEPTH}", sldv_constraints(model)
        ) and ok
    print("OK" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
