"""Conditional-subsystem (enable) semantics under the kernel.

The kernel maintains a shared activation table instead of the
interpreter's per-step ``actives`` list; these tests pin the behaviours
that table must reproduce — latches hold when a scope is inactive, state
inside inactive scopes does not advance, and nested scopes gate on their
parent's activation.
"""

import random

import pytest

from repro.coverage.collector import CoverageCollector
from repro.expr.types import BOOL, INT
from repro.model import ModelBuilder
from repro.model.inputs import random_input
from repro.model.simulator import Simulator
from repro.stateflow.spec import ChartSpec


def build_if_model():
    """An If/else with per-branch latches, a conditional UnitDelay and a
    conditional store write."""
    b = ModelBuilder("Gates")
    go = b.inport("go", BOOL)
    x = b.inport("x", INT, 0, 9)
    b.data_store("seen", INT, 0)
    seen = b.store_read("seen")
    branch = b.if_block([go], has_else=True)
    with branch.case(0):
        delayed = b.unit_delay(x, init=0, name="lag")
        up = b.sub_output(b.add(x, delayed), init=-1)
        b.store_write("seen", b.add(seen, b.const(1)))
    with branch.default():
        down = b.sub_output(b.gain(x, -1), init=-1)
    b.outport("up", up)
    b.outport("down", down)
    b.outport("seen", seen)
    return b.compile()


def build_nested_model():
    """A SwitchCase whose case 0 contains a nested If — the inner scope is
    active only when both decisions select it."""
    b = ModelBuilder("Nested")
    mode = b.inport("mode", INT, 0, 2)
    flag = b.inport("flag", BOOL)
    sc = b.switch_case(mode, cases=[[0], [1]], has_default=True)
    with sc.case(0):
        inner = b.if_block([flag], has_else=True)
        with inner.case(0):
            inner_latch = b.sub_output(b.const(7), init=0)
        with inner.default():
            b.sub_output(b.const(8), init=0)
        outer_latch = b.sub_output(b.counter(period=100), init=-1)
    with sc.case(1):
        b.sub_output(b.const(9), init=0)
    b.outport("inner", inner_latch)
    b.outport("outer", outer_latch)
    return b.compile()


def build_gated_chart_model():
    """A chart inside an If scope: while the scope is inactive its guards
    are still evaluated, but it reports no coverage and keeps its state."""
    chart = ChartSpec("mode")
    chart.input("x", INT, 0, 9)
    chart.output("level", INT, 0)
    low = chart.state("Low", entry=["level = 1"])
    high = chart.state("High", entry=["level = 2"], during=["level = level + 1"])
    chart.initial(low)
    chart.transition(low, high, guard="x > 5 && x < 9", priority=1)
    chart.transition(high, low, guard="x < 2 || x == 9", priority=1)
    chart.transition(high, high, guard="x == 7", priority=2)
    b = ModelBuilder("GatedChart")
    go = b.inport("go", BOOL)
    x = b.inport("x", INT, 0, 9)
    branch = b.if_block([go], has_else=True)
    with branch.case(0):
        level = b.sub_output(b.add_chart(chart, {"x": x})["level"], init=-1)
    b.outport("level", level)
    return b.compile()


def _pair(build):
    left, right = build(), build()
    return (
        Simulator(left, CoverageCollector(left.registry), kernel=True),
        Simulator(right, CoverageCollector(right.registry), kernel=False),
    )


@pytest.mark.parametrize(
    "build", [build_if_model, build_nested_model, build_gated_chart_model]
)
def test_kernel_matches_interpreter_on_conditional_models(build):
    sim_k, sim_i = _pair(build)
    rng = random.Random(99)
    for _ in range(120):
        inputs = random_input(sim_k.compiled.inports, rng)
        a = sim_k.step(inputs)
        b = sim_i.step(inputs)
        assert a.outputs == b.outputs
        assert a.new_branch_ids == b.new_branch_ids
        assert a.taken_outcomes == b.taken_outcomes
        assert a.new_obligations == b.new_obligations
        assert sim_k.get_state().values == sim_i.get_state().values


@pytest.mark.parametrize("kernel", [True, False], ids=["kernel", "interp"])
class TestGatingBehaviour:
    def test_latch_holds_while_scope_inactive(self, kernel):
        sim = Simulator(build_if_model(), kernel=kernel)
        assert sim.step({"go": True, "x": 3}).outputs["up"] == 3  # 3 + lag(0)
        held = sim.step({"go": False, "x": 9}).outputs
        assert held["up"] == 3          # latched from the active step
        assert held["down"] == -9       # else branch computed this step

    def test_conditional_unit_delay_freezes_when_inactive(self, kernel):
        sim = Simulator(build_if_model(), kernel=kernel)
        sim.step({"go": True, "x": 5})           # lag := 5
        sim.step({"go": False, "x": 8})          # scope off: lag stays 5
        result = sim.step({"go": True, "x": 1})  # 1 + lag(5)
        assert result.outputs["up"] == 6

    def test_conditional_store_write_skipped_when_inactive(self, kernel):
        sim = Simulator(build_if_model(), kernel=kernel)
        sim.step({"go": True, "x": 0})
        sim.step({"go": False, "x": 0})
        sim.step({"go": True, "x": 0})
        # "seen" incremented only on the two active steps; the outport reads
        # the value before this step's write.
        assert sim.step({"go": False, "x": 0}).outputs["seen"] == 2

    def test_nested_scope_needs_both_parents_active(self, kernel):
        sim = Simulator(build_nested_model(), kernel=kernel)
        first = sim.step({"mode": 0, "flag": True}).outputs
        assert first["inner"] == 7
        # Outer case selected, inner else: inner latch holds.
        second = sim.step({"mode": 0, "flag": False}).outputs
        assert second["inner"] == 7
        # Outer case deselected: flag=True must NOT reactivate the inner
        # scope — its parent is inactive.
        third = sim.step({"mode": 1, "flag": True}).outputs
        assert third["inner"] == 7
        # Counter in the outer scope ticked only on the two mode==0 steps.
        assert third["outer"] == second["outer"]
