"""SLDV's compiled solves are bit-identical to the reference interpreter.

SLDV hands every (branch, depth) constraint to the solver with a
compiled bundle (``ConstraintCompiler.compile(constraint)``).
The reference run is forced by monkeypatching the compiler to hand out
no bundle, which sends every solve down the engine's ``compiled=None``
interpreter path.  Wall clock is pinned out of the picture as in the
benchmark: a counting clock drives SLDV's budget and the per-call solver
cutoff is raised out of the way.
"""

from dataclasses import replace

import pytest

from repro.baselines import SldvConfig, SldvGenerator
from repro.models.registry import benchmark_names, get_benchmark
from repro.solverc import ConstraintCompiler

#: Unroll depth per registry model: CPUTask and LANSwitch unroll into
#: constraints too large to solve at depth 3 within a test's time.
DEPTHS = {
    "TWC": 3,
    "NICProtocol": 3,
    "UTPC": 3,
    "LEDLC": 3,
    "TCP": 3,
    "AFC": 3,
    "CPUTask": 2,
    "LANSwitch": 2,
}


class CountingClock:
    """A deterministic clock: every read advances one fixed tick."""

    def __init__(self, tick=0.001):
        self.reads = 0
        self.tick = tick

    def __call__(self):
        self.reads += 1
        return self.reads * self.tick


def _run(name, trace=False):
    config = SldvConfig(
        budget_s=1000.0,
        seed=0,
        max_depth=DEPTHS[name],
        solver=replace(SldvConfig().solver, time_budget_s=60.0),
        trace=trace,
    )
    generator = SldvGenerator(
        get_benchmark(name).build(), config, clock=CountingClock()
    )
    return generator.run()


def _fingerprint(result):
    return (
        [
            (case.origin, case.inputs, case.new_branch_ids, case.timestamp)
            for case in result.suite
        ],
        result.summary.as_dict(),
        result.summary.covered_branches,
        result.stats,
    )


def test_registry_is_covered():
    assert sorted(DEPTHS) == sorted(benchmark_names())


@pytest.mark.parametrize("name", sorted(DEPTHS))
def test_compiled_suite_equals_reference(name, monkeypatch):
    compiled = _fingerprint(_run(name))
    with monkeypatch.context() as patch:
        patch.setattr(
            ConstraintCompiler, "compile", lambda self, *args, **kw: None
        )
        reference = _fingerprint(_run(name))
    assert compiled == reference


def test_compile_traffic_is_traced():
    result = _run("TCP", trace=True)
    solverc = result.trace_data["solverc"]
    assert solverc["enabled"] is True
    assert solverc["constraints_compiled"] == result.stats["solver_calls"] > 0
    assert solverc["avm_compiled"] > 0
    assert solverc["compile_fallbacks"] == 0
