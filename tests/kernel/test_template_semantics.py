"""The step template is the model's concrete semantics.

Per step, from the interpreter's state before the step, the template
evaluated by :func:`repro.expr.evaluator.evaluate` must give the
interpreter's next state and outputs (value and type), and its coverage
events in the interpreter's order: a decision's outcome is the first
outcome whose condition holds, taken only while its registry parent
branch is taken; a condition point's vector is emitted only while its
context holds.  The generated step (``Simulator(kernel=True)``) must
give the same results and the same collector calls, in order.

Each step runs on a fresh recording collector, so every event of the
step reaches the collector (nothing is already covered) and the
recorded calls are the step's whole event stream.

Besides the registry models, one small model per block family runs the
same checks, and models whose template types differ from the
interpreter's values must run through the interpreter.
"""

import math
import random

import pytest

from repro.coverage.collector import CoverageCollector
from repro.expr.evaluator import Evaluator
from repro.expr.types import BOOL, INT, REAL
from repro.model import ModelBuilder
from repro.model.inputs import piecewise_constant_sequence, random_sequence
from repro.model.simulator import Simulator
from repro.models.registry import BENCHMARKS, SIMPLE_CPUTASK
from repro.stateflow.chart import ChartBlock

from tests.conftest import build_counter_model, build_queue_model


def build_math_model():
    b = ModelBuilder("Math")
    u = b.inport("u", REAL, -10, 10)
    v = b.inport("v", REAL, -10, 10)
    k = b.inport("k", INT, -5, 5)
    b.outport("gain", b.gain(u, 3.0))
    b.outport("bias", b.bias(u, 2.0))
    b.outport("sum", b.add(u, v, b.gain(v, 0.5)))
    b.outport("diff", b.sub(u, v))
    b.outport("prod", b.mul(u, v))
    b.outport("quot", b.div(u, b.bias(b.abs(v), 1.0)))
    b.outport("abs", b.abs(u))
    b.outport("min", b.min(u, v))
    b.outport("max", b.max(k, b.const(2)))
    b.outport("sat", b.saturate(u, -2.0, 3.0))
    b.outport("int", b.cast(u, INT))
    b.outport("bool", b.cast(k, BOOL))
    b.outport("real", b.cast(k, REAL))
    b.outport("quant", b.quantize(u, 0.5))
    # An INT signal bound to a REAL argument is read as a real.
    b.outport("fcn", b.fcn("u * 2 + k / 4", u=u, k=k))
    b.outport("fcn_int", b.fcn("k // 2", k=(k, INT)))
    b.outport("lookup", b.lookup(u, [-5.0, 0.0, 5.0], [1.0, 4.0, -2.0]))
    return b.compile()


def build_logic_model():
    b = ModelBuilder("Logic")
    p = b.inport("p", BOOL)
    q = b.inport("q", BOOL)
    u = b.inport("u", REAL, -10, 10)
    k = b.inport("k", INT, -5, 5)
    lt = b.compare(u, "<", b.gain(k, 1.0))
    ge = b.compare(k, ">=", 2)
    b.outport("and", b.logic("and", p, q, lt))
    b.outport("or", b.logic("or", p, ge))
    b.outport("xor", b.logic("xor", q, lt))
    b.outport("not", b.logic_not(ge))
    return b.compile()


def build_routing_model():
    b = ModelBuilder("Routing")
    c = b.inport("c", REAL, -10, 10)
    u = b.inport("u", REAL, -10, 10)
    k = b.inport("k", INT, 0, 4)
    b.outport("sw", b.switch(c, u, b.gain(u, -1.0), criterion="gt", threshold=1))
    b.outport("sw0", b.switch(c, b.const(1), b.const(2), criterion="ne0"))
    b.outport(
        "mp",
        b.multiport(k, cases=[(1, u), (2, c)], default=b.const(0.5)),
    )
    branch = b.if_block([b.compare(c, ">", 0.0)], has_else=True)
    with branch.case(0):
        held = b.sub_output(b.gain(u, 2.0), init=0.0)
    sc = b.switch_case(k, cases=[[1, 2], [3]], has_default=True)
    with sc.case(1):
        chosen = b.sub_output(b.add(k, b.const(10)), init=-1)
    b.outport("held", held)
    b.outport("chosen", chosen)
    return b.compile()


def build_array_model():
    b = ModelBuilder("Arrays")
    i = b.inport("i", INT, -1, 3)
    u = b.inport("u", REAL, -10, 10)
    v = b.inport("v", REAL, -10, 10)
    k = b.inport("k", INT, 0, 9)
    reals = b.mux(u, v)
    b.outport("mux", reals)
    b.outport("mux_int", b.mux(k, i))
    b.outport("sel", b.select(reals, i, 2))
    b.outport("upd", b.array_update(b.const((0.5, 0.0, 1.0)), i, u, 3))
    b.outport("upd_int", b.array_update(b.const((0, 0, 0)), i, k, 3))
    return b.compile()


def build_discrete_model():
    b = ModelBuilder("Discrete")
    u = b.inport("u", REAL, -10, 10)
    k = b.inport("k", INT, 0, 5)
    b.outport("delay", b.unit_delay(u, init=0.5))
    b.outport("delay_int", b.unit_delay(k, init=7))
    b.outport("integ", b.integrator(u, gain=0.5, init=0.0, lo=-4.0, hi=4.0))
    b.outport("rate", b.rate_limit(u, up=1.0, down=2.0, init=0.0))
    b.outport("count", b.counter(period=3))
    b.data_store("acc", REAL, 1.0)
    old = b.store_read("acc")
    b.store_write("acc", b.saturate(b.add(old, u), -20.0, 20.0))
    b.outport("acc", b.store_read("acc", current=True))
    return b.compile()


BUILDERS = {m.name: m.build for m in BENCHMARKS + [SIMPLE_CPUTASK]}
BUILDERS["Counter"] = build_counter_model
BUILDERS["Queue"] = build_queue_model
for _build in (
    build_math_model,
    build_logic_model,
    build_routing_model,
    build_array_model,
    build_discrete_model,
):
    BUILDERS[_build().name] = _build

#: Steps per sequence kind.  TWC and UTPC feed state through lookup
#: tables; a segment formula that differs from the template's in the
#: last bit shows on about 1 step in 200 there.
STEPS = {"TWC": 1500, "UTPC": 1500}
DEFAULT_STEPS = 300


class Recorder(CoverageCollector):
    """A collector that logs every call, in order."""

    def __init__(self, registry):
        super().__init__(registry)
        self.events = []

    def on_branch(self, branch):
        self.events.append(("branch", branch.branch_id))
        return super().on_branch(branch)

    def on_condition_vector(self, point, vector):
        self.events.append(("vector", point.point_id, tuple(vector)))
        return super().on_condition_vector(point, vector)


def _sequences(compiled, steps):
    rng = random.Random(2024)
    pieces = []
    while len(pieces) < steps:
        length = rng.randint(5, 40)
        pieces += piecewise_constant_sequence(compiled.inports, rng, length, 3)
    return {
        "random": random_sequence(compiled.inports, rng, steps),
        "piecewise": pieces[:steps],
    }


def _probe_order(compiled, state):
    """``("decision", d)`` / ``("point", p)`` in the interpreter's event
    order from ``state``: plan order, a chart's transitions in its
    active leaf's evaluation order."""
    for item in compiled.plan:
        block = item.block
        if isinstance(block, ChartBlock):
            loc = int(state[f"{block.path}.loc"])
            for point, decision in block.evaluation_order()[loc]:
                if point is not None:
                    yield "point", point
                yield "decision", decision
            continue
        point = getattr(block, "condition_point", None)
        if point is not None:
            yield "point", point
        decision = getattr(block, "decision", None)
        if decision is not None:
            yield "decision", decision


def _template_events(compiled, evaluator, state):
    """The template's event stream under ancestor and context gating."""
    template = compiled.step_template()
    taken = {}
    events = []
    for kind, probe in _probe_order(compiled, state):
        if kind == "point":
            atoms, context = template.condition_atoms[probe.point_id]
            if evaluator.evaluate(context):
                vector = tuple(bool(evaluator.evaluate(a)) for a in atoms)
                events.append(("vector", probe.point_id, vector))
            continue
        parent = probe.branches[0].parent
        if parent is not None:
            if taken.get(parent.decision.decision_id) != parent.outcome:
                continue
        conditions = template.outcome_conditions[probe.decision_id]
        for outcome, condition in enumerate(conditions):
            if evaluator.evaluate(condition):
                taken[probe.decision_id] = outcome
                events.append(("branch", probe.branches[outcome].branch_id))
                break
    return events


def _evaluate_all(evaluator, exprs):
    return {key: evaluator.evaluate(expr) for key, expr in exprs.items()}


def _typed_value(value):
    if isinstance(value, tuple):
        return tuple(_typed_value(element) for element in value)
    return type(value), value


def _typed(values):
    return {key: _typed_value(value) for key, value in values.items()}


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_template_and_generated_step_equal_the_interpreter(name):
    compiled = BUILDERS[name]()
    template = compiled.step_template()
    reference = Simulator(compiled, kernel=False)
    generated = Simulator(BUILDERS[name]())
    steps = STEPS.get(name, DEFAULT_STEPS)
    for kind, sequence in _sequences(compiled, steps).items():
        reference.reset()
        generated.reset()
        for index, inputs in enumerate(sequence):
            where = f"{name} {kind} step {index}"
            before = reference.get_state().values
            env = {**reference._prepare_inputs(inputs), **before}
            evaluator = Evaluator(env)
            reference.collector = Recorder(compiled.registry)
            generated.collector = Recorder(generated.compiled.registry)
            expected = reference.step(inputs)
            result = generated.step(inputs)
            after = reference.get_state().values
            events = reference.collector.events

            next_state = _evaluate_all(evaluator, template.next_state)
            outputs = _evaluate_all(evaluator, template.outputs)
            assert _typed(next_state) == _typed(after), where
            assert _typed(outputs) == _typed(expected.outputs), where
            template_events = _template_events(compiled, evaluator, before)
            assert template_events == events, where

            state = generated.get_state().values
            taken = list(result.taken_outcomes.items())
            assert _typed(state) == _typed(after), where
            assert _typed(result.outputs) == _typed(expected.outputs), where
            assert taken == list(expected.taken_outcomes.items()), where
            assert generated.collector.events == events, where
            assert result.new_branch_ids == expected.new_branch_ids, where
            assert result.new_obligations == expected.new_obligations, where
    assert generated.kernel_stats()["kernel_steps"] == 2 * steps


def _mixed(name, wire):
    def build():
        b = ModelBuilder(name)
        c = b.inport("c", BOOL)
        k = b.inport("k", INT, -3, 3)
        u = b.inport("u", REAL, -5, 5)
        b.outport("y", wire(b, c, k, u))
        return b.compile()

    return build


#: Models whose template types differ from the interpreter's Python
#: values: the template coerces where the interpreter passes a value on
#: as it is (an int arm of a real switch stays an int).
MIXED = {
    "switch": _mixed("MixedSwitch", lambda b, c, k, u: b.switch(c, k, u)),
    "min": _mixed("MixedMin", lambda b, c, k, u: b.min(k, u)),
    "saturate": _mixed("MixedSat", lambda b, c, k, u: b.saturate(u, -2, 3)),
    "mux": _mixed("MixedMux", lambda b, c, k, u: b.mux(k, u)),
    "store": _mixed(
        "MixedStore",
        lambda b, c, k, u: b.array_update(b.const((0, 0)), k, u, 2),
    ),
    "delay": _mixed("MixedDelay", lambda b, c, k, u: b.unit_delay(u, init=0)),
}


@pytest.mark.parametrize("name", sorted(MIXED))
def test_models_the_template_types_differently_run_the_interpreter(name):
    compiled = MIXED[name]()
    assert compiled.step_function() is None
    reference = Simulator(MIXED[name](), kernel=False)
    simulator = Simulator(compiled)
    for kind, sequence in _sequences(compiled, DEFAULT_STEPS).items():
        reference.reset()
        simulator.reset()
        for index, inputs in enumerate(sequence):
            where = f"{name} {kind} step {index}"
            expected = reference.step(inputs)
            result = simulator.step(inputs)
            assert _typed(result.outputs) == _typed(expected.outputs), where
            state = simulator.get_state().values
            assert _typed(state) == _typed(reference.get_state().values), where
            assert result.new_branch_ids == expected.new_branch_ids, where
    stats = simulator.kernel_stats()
    assert stats["fallback_blocks"] == len(compiled.plan)
    assert stats["kernel_steps"] == 0


def test_a_step_raising_in_an_output_records_no_coverage():
    """The conversion raises (``int(inf)``) before the switch runs; the
    generated step computes outputs before it fires any probe, so the
    collector sees what the interpreter's failing step recorded."""

    def build():
        b = ModelBuilder("RaisingOutput")
        u = b.inport("u", REAL)
        c = b.inport("c", BOOL)
        b.outport("y", b.cast(u, INT))
        b.outport("z", b.switch(c, b.const(1), b.const(2)))
        return b.compile()

    inputs = {"u": math.inf, "c": True}
    failures = []
    for kernel in (False, True):
        compiled = build()
        collector = CoverageCollector(compiled.registry)
        simulator = Simulator(compiled, collector, kernel=kernel)
        with pytest.raises(ArithmeticError) as raised:
            simulator.step(inputs)
        failures.append((type(raised.value), str(raised.value)))
        assert simulator.collector.covered_branch_ids == set(), kernel
        assert simulator.step({"u": 1.0, "c": True}).new_branch_ids == [0]
    assert failures[0] == failures[1]
    assert simulator.compiled.step_function() is not None
