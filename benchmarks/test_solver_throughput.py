"""Bench: symbolic solve throughput, compiled solver kernel vs interpreter.

Solving is the other half of STCG's hot path: Algorithm 1 fires one
one-step constraint per (state, branch) pair per pass, and each solve
funnels through contraction, candidate sampling and AVM descent.  The
``repro.solverc`` compiler specializes that pipeline per constraint
(compiled scalar distance objectives for the whole constraint and each
split case, replayed contraction snapshots); this bench measures
solves/second, kernel on vs off, on three cells:

* ``CPUTask`` (dataflow-heavy) and ``UTPC`` (chart-heavy): warm
  one-step solves.  Warm is the honest configuration for STCG: the
  compiled bundle for a (fingerprint, target) pair is built on its
  second visit and reused from the cache afterwards, so the steady-state
  cost is exactly a warm re-solve.  These cells widen ``max_samples``
  so the sampling stage, where every candidate is scored by the
  objective, carries Table-III-scale weight.
* ``TCP-sldv3``: the SLDV baseline's depth-3 unrolled constraints on
  TCP, at SLDV's own solver budgets.  SLDV solves each constraint once,
  so the kernel pass compiles every bundle inside the timed pass; these
  are the big shared DAGs where the compiled objective's per-call memo
  matters, and an objective that reaches 256 evaluations runs as its
  generated straight-line function from then on
  (``repro.solverc.compiler.HOT_EVALUATIONS``).

Two guarantees are asserted, matching the issue's acceptance bar:

* the kernel sustains at least ``MIN_SPEEDUP`` x the interpreter's
  solves/second on every cell, and
* every solve returns the identical (status, model, stage, RNG
  consumption) tuple on both paths (speed means nothing if the verdicts
  or the downstream random draws move).

The ``test_solves_{kernel,interp}_*`` pairs additionally record both
timings with pytest-benchmark so CI can gate on regressions against the
committed ``BENCH_baseline.json``.
"""

import random
import statistics
import time
from dataclasses import replace

import pytest

from repro.baselines.sldv import SldvConfig, _IncrementalUnroll
from repro.coverage.collector import CoverageCollector
from repro.model.inputs import random_input
from repro.model.simulator import Simulator
from repro.models.registry import get_benchmark
from repro.solver.encoder import OneStepEncoding
from repro.expr.ast import Const
from repro.solver.engine import SolverConfig, SolverEngine
from repro.solverc import ConstraintCompiler

SEED = 11
#: Required kernel/interpreter solves-per-second ratio (the issue's
#: acceptance threshold is 1.5x; measured margin is >2x on every cell).
MIN_SPEEDUP = 1.5

#: The SLDV cell: depth-3 unrolled constraints on TCP.
SLDV_CELL = "TCP-sldv3"
SLDV_MODEL = "TCP"
SLDV_DEPTH = 3

CELLS = ["CPUTask", "UTPC", SLDV_CELL]

#: Table-III-scale per-solve budgets: a wide sampling stage and enough
#: AVM evaluations for the hard targets.
CONFIG = SolverConfig(max_samples=256, avm_evaluations=700, time_budget_s=60.0)
#: SLDV's own per-branch budgets, with the per-call cutoff raised out of
#: the way so a loaded machine cannot time a solve out.
SLDV_CONFIG = replace(SldvConfig().solver, time_budget_s=60.0)


def _problems(model_name, steps=30, states=8):
    """(constraint, variables) pairs from real one-step encodings along a
    random concrete trajectory — the same workload generation produces."""
    compiled = get_benchmark(model_name).build()
    sim = Simulator(compiled, CoverageCollector(compiled.registry))
    rng = random.Random(SEED)
    visited = [sim.get_state()]
    for _ in range(steps):
        sim.step(random_input(compiled.inports, rng))
        visited.append(sim.get_state())
    problems = []
    branches = list(compiled.registry.branches)
    for state in visited[:: max(1, len(visited) // states)]:
        encoding = OneStepEncoding(compiled, state)
        for branch in branches:
            problems.append(
                (encoding.path_constraint(branch), encoding.variables)
            )
    return problems


def _sldv_problems():
    """The constraints SLDV hands the solver at unroll depth 3, one per
    branch (constant-false ones skipped, as SLDV does): large DAGs that
    share the unrolled state across atoms."""
    compiled = get_benchmark(SLDV_MODEL).build()
    unroll = _IncrementalUnroll(compiled)
    for _ in range(SLDV_DEPTH):
        unroll.extend()
    problems = []
    for branch in compiled.registry.branches_by_depth():
        constraint = unroll.path_constraint(branch, SLDV_DEPTH - 1)
        if isinstance(constraint, Const) and constraint.value is False:
            continue
        problems.append((constraint, list(unroll.variables)))
    return problems


def _result_key(result):
    return (
        result.status,
        result.model,
        result.stats.stage,
        result.stats.samples,
        result.stats.avm_evaluations,
    )


def _interp_pass(problems, config):
    engine = SolverEngine(config)
    rng = random.Random(99)
    return [_result_key(engine.solve(c, v, rng)) for c, v in problems]


def _kernel_pass(problems, compiled_list, config):
    engine = SolverEngine(config)
    rng = random.Random(99)
    return [
        _result_key(engine.solve(c, v, rng, compiled=comp))
        for (c, v), comp in zip(problems, compiled_list)
    ]


def _compile_warm(problems, config):
    """Compile every bundle and run one warm-up pass so the contraction
    snapshots are recorded — the cached steady state generation reaches."""
    compiler = ConstraintCompiler()
    compiled_list = [compiler.compile(c) for c, _ in problems]
    _kernel_pass(problems, compiled_list, config)
    return compiled_list


def _workload(cell):
    """``(problems, config, description)`` of a bench cell."""
    if cell == SLDV_CELL:
        return _sldv_problems(), SLDV_CONFIG, "compiled inside each pass"
    return _problems(cell), CONFIG, f"seed {SEED}, warm passes"


def _kernel(cell, problems, config):
    """A callable running one kernel pass over ``problems``.

    One-step cells reuse warm bundles; the SLDV cell compiles its bundles
    inside every pass, as SLDV does.
    """
    if cell == SLDV_CELL:
        def kernel():
            compiler = ConstraintCompiler()
            bundles = (compiler.compile(c) for c, _ in problems)
            return _kernel_pass(problems, bundles, config)

        return kernel
    compiled_list = _compile_warm(problems, config)
    return lambda: _kernel_pass(problems, compiled_list, config)


@pytest.mark.parametrize("cell", CELLS)
def test_solver_kernel_throughput(cell, artifact):
    """Kernel >= MIN_SPEEDUP x interpreter solves/s, bit-identical."""
    problems, config, description = _workload(cell)
    kernel = _kernel(cell, problems, config)

    # Transparency first: identical verdicts, models and RNG consumption.
    base = _interp_pass(problems, config)
    assert kernel() == base

    kernel_times, interp_times = [], []
    for _ in range(3):
        started = time.perf_counter()
        kernel()
        kernel_times.append(time.perf_counter() - started)
        started = time.perf_counter()
        _interp_pass(problems, config)
        interp_times.append(time.perf_counter() - started)

    n = len(problems)
    kernel_rate = n / statistics.mean(kernel_times)
    interp_rate = n / statistics.mean(interp_times)
    speedup = kernel_rate / interp_rate
    artifact(
        f"solver_throughput_{cell}.txt",
        f"{cell}: {n} solves (max_samples={config.max_samples}), "
        f"mean of 3 passes ({description})\n"
        f"  interpreter: {interp_rate:,.0f} solves/s\n"
        f"  kernel:      {kernel_rate:,.0f} solves/s\n"
        f"  speedup:     {speedup:.2f}x (required: {MIN_SPEEDUP:.1f}x)\n",
    )
    assert speedup >= MIN_SPEEDUP, (
        f"{cell} solver-kernel speedup {speedup:.2f}x below the "
        f"{MIN_SPEEDUP:.1f}x acceptance threshold "
        f"(kernel {kernel_rate:,.0f} solves/s, "
        f"interpreter {interp_rate:,.0f} solves/s)"
    )


@pytest.mark.parametrize("cell", CELLS)
def test_solves_kernel(cell, benchmark):
    """Compiled-kernel solve pass (warm bundles, or compiled in-pass)."""
    problems, config, _ = _workload(cell)
    results = benchmark.pedantic(
        _kernel(cell, problems, config),
        rounds=3, iterations=1, warmup_rounds=1,
    )
    assert len(results) == len(problems)


@pytest.mark.parametrize("cell", CELLS)
def test_solves_interp(cell, benchmark):
    """Pure interpreter solve pass (the reference semantics)."""
    problems, config, _ = _workload(cell)
    results = benchmark.pedantic(
        lambda: _interp_pass(problems, config),
        rounds=3, iterations=1, warmup_rounds=1,
    )
    assert len(results) == len(problems)
