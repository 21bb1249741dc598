"""The cursor scan tries exactly the naive scan's (state, target) pairs.

Algorithm 1's ``SB`` is kept as one cursor per target into the tree's
canonical-node list.  These tests record every ``_solve`` call, as
``(node_id, target_key)``, and check that the sequence equals the one the
naive scan of :mod:`tests.core.reference_scan` produces: every tree node,
duplicates included, with per-fingerprint tried sets.

Both runs use a counting clock, so the budget is a number of clock reads,
and a solver cutoff raised out of the way, so no solve times out in one
run but not the other.
"""

import pytest

from repro.core import StcgConfig, StcgGenerator
from repro.core.config import FuzzConfig
from repro.fuzz.engine import HybridGenerator
from repro.models.registry import get_benchmark
from repro.solver.engine import SolverConfig

from tests.conftest import build_counter_model, build_queue_model
from tests.core.reference_scan import record_solves, use_reference_scan


def counting_clock(step=0.001):
    """A deterministic clock: every read advances one fixed tick."""
    now = [0.0]

    def clock():
        now[0] += step
        return now[0]

    return clock


def config(**overrides):
    return StcgConfig(
        seed=3,
        budget_s=0.6,
        solver=SolverConfig(time_budget_s=60.0),
        **overrides,
    )


def solve_sequence(monkeypatch, make_generator, *, reference):
    """The ``_solve`` calls and the result of one run."""
    with monkeypatch.context() as patch:
        calls = record_solves(patch)
        if reference:
            use_reference_scan(patch)
        result = make_generator().run()
    return calls, result


def assert_same_scan(monkeypatch, make_generator):
    cursor, ours = solve_sequence(monkeypatch, make_generator, reference=False)
    naive, theirs = solve_sequence(monkeypatch, make_generator, reference=True)
    assert cursor, "the run never reached the solver"
    assert cursor == naive
    assert [case.inputs for case in ours.suite] == [
        case.inputs for case in theirs.suite
    ]
    assert ours.stats == theirs.stats


@pytest.mark.parametrize(
    "build",
    [
        build_counter_model,
        build_queue_model,
        get_benchmark("CPUTask").build,
        get_benchmark("NICProtocol").build,
    ],
    ids=["counter", "queue", "CPUTask", "NICProtocol"],
)
def test_stcg_scan_order(monkeypatch, build):
    assert_same_scan(
        monkeypatch,
        lambda: StcgGenerator(build(), config(), clock=counting_clock()),
    )


def test_hybrid_scan_order(monkeypatch):
    """Fuzzing appends tree nodes between the two solver phases; the
    cursors must resume over them as the naive scan does."""
    build = get_benchmark("CPUTask").build
    assert_same_scan(
        monkeypatch,
        lambda: HybridGenerator(
            build(),
            config(fuzz=FuzzConfig(executions=200)),
            clock=counting_clock(),
        ),
    )
