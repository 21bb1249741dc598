"""Observational transparency of the solver kernel (repro.solverc).

Two levels, mirroring the sim-kernel suite:

* **per solve** — on constraints harvested from real model encodings,
  a kernel-assisted engine must return the same status, model, terminal
  stage and RNG-consumption counters as the plain interpreter, cold and
  warm (the warm pass replays the cached contraction snapshots);
* **per generation run** — fixed-seed STCG runs must produce
  bit-identical suites with the kernel on or off, across every registry
  benchmark.  "Off" patches ``ConstraintCompiler.compile`` to hand out
  no bundle, which sends every solve down the engine's ``compiled=None``
  interpreter path.

The generation-level runs pin wall-clock out of the picture: a fake
deterministic clock drives the generator loop and the per-call solver
budget — which the lite backoff engine inherits — is effectively
unbounded.  Failure backoff is disabled as well, so every solve runs on
the full engine.
"""

import random

import pytest

from repro.cache import SolveCache
from repro.core import StcgConfig, StcgGenerator
from repro.coverage.collector import CoverageCollector
from repro.model.inputs import random_input
from repro.model.simulator import Simulator
from repro.models.registry import BENCHMARKS
from repro.solver.encoder import OneStepEncoding
from repro.solver.engine import SolverConfig, SolverEngine
from repro.solverc import ConstraintCompiler

from tests.conftest import build_counter_model, build_queue_model

MODEL_NAMES = [model.name for model in BENCHMARKS]


class FakeClock:
    """A deterministic monotonic clock: every read advances one tick."""

    def __init__(self, tick=0.001):
        self.t = 0.0
        self.tick = tick

    def __call__(self):
        self.t += self.tick
        return self.t


def harvest_problems(bench, steps=12, states=5, seed=11):
    """(constraint, variables) pairs from real one-step encodings."""
    compiled = bench.build()
    collector = CoverageCollector(compiled.registry)
    sim = Simulator(compiled, collector)
    rng = random.Random(seed)
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


def result_key(result):
    """Everything a solve exposes that determinism must preserve —
    including the RNG-consumption counters, so downstream draws agree."""
    return (
        result.status,
        result.model,
        result.stats.stage,
        result.stats.samples,
        result.stats.avm_evaluations,
    )


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_solves_bit_identical_per_constraint(name):
    bench = next(m for m in BENCHMARKS if m.name == name)
    problems = harvest_problems(bench)
    config = SolverConfig(
        max_samples=32, avm_evaluations=300, time_budget_s=60.0
    )
    compiler = ConstraintCompiler()

    interp = SolverEngine(config)
    rng = random.Random(99)
    base = [result_key(interp.solve(c, v, rng)) for c, v in problems]

    compiled_list = [compiler.compile(c) for c, _ in problems]
    kern = SolverEngine(config)
    rng = random.Random(99)
    cold = [
        result_key(kern.solve(c, v, rng, compiled=comp))
        for (c, v), comp in zip(problems, compiled_list)
    ]
    assert cold == base

    # Warm pass: contraction snapshots and memoized artifacts replay.
    warm_engine = SolverEngine(config)
    rng = random.Random(99)
    warm = [
        result_key(warm_engine.solve(c, v, rng, compiled=comp))
        for (c, v), comp in zip(problems, compiled_list)
    ]
    assert warm == base


def _generation(build, solver_kernel, cache=None):
    config = StcgConfig(
        budget_s=0.6,
        seed=7,
        failure_backoff_after=10**9,
        solver=SolverConfig(
            max_samples=32, avm_evaluations=300, time_budget_s=600.0
        ),
    )
    with pytest.MonkeyPatch.context() as patch:
        if not solver_kernel:
            patch.setattr(
                ConstraintCompiler, "compile", lambda self, *args, **kw: None
            )
        generator = StcgGenerator(
            build(), config, cache=cache, clock=FakeClock()
        )
        return generator, generator.run()


def _suite_key(result):
    return (
        [case.inputs for case in result.suite],
        [case.origin for case in result.suite],
        result.decision,
        result.condition,
        result.mcdc,
        dict(result.stats),
    )


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_generation_bit_identical_kernel_on_vs_off(name):
    bench = next(m for m in BENCHMARKS if m.name == name)
    _, on = _generation(bench.build, True)
    _, off = _generation(bench.build, False)
    assert _suite_key(on) == _suite_key(off)


@pytest.mark.parametrize("build", [build_counter_model, build_queue_model])
def test_warm_cache_compiles_on_revisit_without_changing_results(build):
    """The first visit of a (state, target) pair never compiles; a warm
    rerun over a shared cache revisits pairs, builds the bundles, and
    must still reproduce the cold run bit for bit."""
    compiled = build()
    shared = SolveCache(compiled.name)
    cold_gen, cold = _generation(lambda: compiled, True, cache=shared)
    assert cold_gen._compiler.stats.counts["constraints_compiled"] == 0
    assert shared.stats()["compiled_hits"] == 0

    warm_gen, warm = _generation(lambda: compiled, True, cache=shared)
    kernel_off_gen, reference = _generation(lambda: compiled, False)

    assert _suite_key(warm)[:5] == _suite_key(reference)[:5]
    # The rerun revisited pairs, so the kernel finally engaged.
    assert shared.stats()["compiled_hits"] > 0
    assert warm_gen._compiler.stats.counts["constraints_compiled"] > 0
    # The reference run never handed the engine a bundle.
    reference_counts = kernel_off_gen._solverc_stats()
    del reference_counts["enabled"]
    assert not any(reference_counts.values())
