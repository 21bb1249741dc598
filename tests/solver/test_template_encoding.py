"""Template-specialized one-step encodings answer like full symbolic steps.

``OneStepEncoding`` answers a decision or condition point it has not
recorded yet by substituting the state's constants into the model's step
template, folding lazily on one memo per encoding.  Whatever the query
order, every answer, and the next state, must be structurally equal
(``==``) to the answer read off one full ``execute_step`` from the same
state.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.coverage.collector import CoverageCollector
from repro.errors import ReproError
from repro.expr import ops as x
from repro.expr.ast import (
    BOOL,
    Binary,
    Const,
    Expr,
    Ite,
    Select,
    Store,
    Unary,
    Var,
)
from repro.expr.types import ArrayType, INT
from repro.expr.variables import (
    _BINARY_BUILDERS,
    _UNARY_BUILDERS,
    substitute,
)
from repro.model.context import symbolic_context
from repro.model.executor import execute_step
from repro.model.inputs import random_input
from repro.model.simulator import Simulator
from repro.models.registry import BENCHMARKS, SIMPLE_CPUTASK
from repro.solver.encoder import OneStepEncoding

from tests.conftest import build_counter_model, build_queue_model

BUILDERS = {
    **{model.name: model.build for model in [*BENCHMARKS, SIMPLE_CPUTASK]},
    "counter": build_counter_model,
    "queue": build_queue_model,
}

_COMPILED = {}


def compiled_model(name):
    """One compiled model per name: its template is built once."""
    if name not in _COMPILED:
        _COMPILED[name] = BUILDERS[name]()
    return _COMPILED[name]


def reachable_state(compiled, steps, seed):
    rng = random.Random(seed)
    simulator = Simulator(compiled, CoverageCollector(compiled.registry))
    for _ in range(steps):
        simulator.step(random_input(compiled.inports, rng))
    return simulator.get_state()


def all_targets(compiled):
    obligations = CoverageCollector(
        compiled.registry
    ).all_condition_obligations()
    return [("branch", b) for b in compiled.registry.branches] + [
        ("obligation", o) for o in obligations
    ]


def answer(encoding, target):
    kind, payload = target
    if kind == "branch":
        return encoding.path_constraint(payload)
    return encoding.obligation_constraint(payload)


class ReferenceStep:
    """Answers read off one full symbolic ``execute_step``."""

    def __init__(self, compiled, state):
        self.compiled = compiled
        self.ctx = symbolic_context(
            {v.name: v for v in compiled.input_variables()}, state.values
        )
        execute_step(compiled, self.ctx)

    def next_state(self):
        """Every state element after the step, values lifted."""
        next_state = {**self.ctx.state_env, **self.ctx.next_state}
        return {path: x.lift(value) for path, value in next_state.items()}

    def answer(self, target):
        kind, payload = target
        if kind == "branch":
            conditions = self.ctx.outcome_conditions
            constraint = conditions[payload.decision.decision_id][payload.outcome]
            for ancestor in payload.ancestors():
                constraint = x.land(
                    constraint,
                    conditions[ancestor.decision.decision_id][ancestor.outcome],
                )
            return constraint
        recorded = self.ctx.condition_atoms.get(payload.point_id)
        if recorded is None:
            return x.FALSE
        atoms, context = recorded
        atom = atoms[payload.atom]
        constraint = x.land(context, atom if payload.polarity else x.lnot(atom))
        if payload.determining:
            point = self.compiled.registry.condition_point(payload.point_id)
            constraint = x.land(
                constraint,
                OneStepEncoding._derivative(point, atoms, payload.atom),
            )
        return constraint


class TestFreshEncoding:
    @pytest.mark.parametrize("name", BUILDERS)
    @given(
        steps=st.integers(0, 25),
        seed=st.integers(0, 10_000),
        order_seed=st.integers(0, 10_000),
    )
    @settings(max_examples=12, deadline=None)
    def test_shuffled_queries_match(self, name, steps, seed, order_seed):
        """Every answer, asked in a shuffled order, equals the full step's."""
        compiled = compiled_model(name)
        state = reachable_state(compiled, steps, seed)
        reference = ReferenceStep(compiled, state)
        targets = all_targets(compiled)
        random.Random(order_seed).shuffle(targets)
        encoding = OneStepEncoding(compiled, state)
        for target in targets:
            assert answer(encoding, target) == reference.answer(target), target

    @pytest.mark.parametrize("name", BUILDERS)
    def test_complete_records_the_step(self, name):
        """``complete()`` records exactly what ``execute_step`` records."""
        compiled = compiled_model(name)
        state = reachable_state(compiled, 10, 3)
        full = OneStepEncoding(compiled, state).complete()
        reference = ReferenceStep(compiled, state)
        assert full._outcome_conditions == reference.ctx.outcome_conditions
        assert full._condition_atoms == reference.ctx.condition_atoms

    @pytest.mark.parametrize("name", ["CPUTask", "NICProtocol"])
    @given(steps=st.integers(0, 25), seed=st.integers(0, 10_000))
    @settings(max_examples=12, deadline=None)
    def test_next_state_matches(self, name, steps, seed):
        """The template's next state, specialized, equals the full step's
        (CPUTask: data stores; NICProtocol: a chart)."""
        compiled = compiled_model(name)
        state = reachable_state(compiled, steps, seed)
        encoding = OneStepEncoding(compiled, state)
        reference = ReferenceStep(compiled, state)
        assert encoding.next_state_expressions() == reference.next_state()

    def test_single_query_records_only_its_entry(self):
        compiled = compiled_model("NICProtocol")
        encoding = OneStepEncoding(compiled, reachable_state(compiled, 0, 0))
        branch = compiled.registry.branches[0]
        encoding.branch_condition(branch)
        assert list(encoding._outcome_conditions) == [
            branch.decision.decision_id
        ]
        assert not encoding._condition_atoms


# -- the lazy substitution ---------------------------------------------------


def eager_fold(expr: Expr, bindings, memo=None) -> Expr:
    """Reference: substitute every operand, then rebuild through the
    smart constructors (no short-circuit; shared nodes folded once)."""
    memo = {} if memo is None else memo
    if id(expr) in memo:
        return memo[id(expr)]
    if isinstance(expr, Var):
        result = bindings.get(expr.name, expr)
    elif isinstance(expr, Const):
        result = expr
    else:
        parts = [eager_fold(child, bindings, memo) for child in expr.children]
        if all(p is c for p, c in zip(parts, expr.children)):
            result = expr
        elif isinstance(expr, Unary):
            result = _UNARY_BUILDERS[expr.op](*parts)
        elif isinstance(expr, Binary):
            result = _BINARY_BUILDERS[expr.op](*parts)
        else:
            build = {Ite: x.ite, Select: x.select, Store: x.store}
            result = build[type(expr)](*parts)
    memo[id(expr)] = result
    return result


NAMES = ["a", "b", "c"]
FLAGS = ["p", "q", "r"]
ARRAY = Var("arr", ArrayType(INT, 3))


def _ints():
    leaves = st.one_of(
        st.sampled_from([Var(n, INT) for n in NAMES]),
        st.integers(-3, 3).map(lambda v: Const(v)),
        st.integers(-1, 2).map(
            lambda k: x.select(ARRAY, x.add(Var("a", INT), Const(k)))
        ),
    )
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.tuples(st.sampled_from(["add", "sub", "mul", "min", "max"]),
                      inner, inner).map(lambda t: _BINARY_BUILDERS[t[0]](t[1], t[2])),
            st.tuples(_bools_leaf(), inner, inner).map(lambda t: x.ite(*t)),
            inner.map(x.neg),
        ),
        max_leaves=8,
    )


def _bools_leaf():
    return st.one_of(
        st.sampled_from([Var(n, BOOL) for n in FLAGS]),
        st.booleans().map(Const),
    )


def _bools():
    relation = st.tuples(
        st.sampled_from(["lt", "le", "eq", "ne"]), _ints(), _ints()
    ).map(lambda t: _BINARY_BUILDERS[t[0]](t[1], t[2]))
    return st.recursive(
        st.one_of(_bools_leaf(), relation),
        lambda inner: st.one_of(
            st.tuples(st.sampled_from(["and", "or", "xor", "implies"]),
                      inner, inner).map(lambda t: _BINARY_BUILDERS[t[0]](t[1], t[2])),
            st.tuples(inner, inner, inner).map(lambda t: x.ite(*t)),
            inner.map(x.lnot),
        ),
        max_leaves=10,
    )


def _bindings():
    values = st.one_of(
        st.integers(-3, 3).map(lambda v: Const(v)),
        st.sampled_from([Var(n, INT) for n in NAMES]),
    )
    flags = st.one_of(
        st.booleans().map(Const), st.sampled_from([Var(n, BOOL) for n in FLAGS])
    )
    arrays = st.tuples(
        st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3)
    ).map(lambda t: Const(t, ArrayType(INT, 3)))
    return st.fixed_dictionaries(
        {},
        optional={
            **{n: values for n in NAMES},
            **{n: flags for n in FLAGS},
            "arr": arrays,
        },
    )


class TestLazySubstitute:
    @given(expr=_bools(), bindings=_bindings())
    @settings(max_examples=300, deadline=None)
    def test_equals_the_eager_fold_where_it_does_not_raise(self, expr, bindings):
        try:
            expected = eager_fold(expr, bindings)
        except ReproError:
            return
        assert substitute(expr, bindings) == expected

    @pytest.mark.parametrize("name", ["CPUTask", "NICProtocol", "TWC", "LEDLC"])
    def test_template_entries_equal_the_eager_fold(self, name):
        compiled = compiled_model(name)
        template = compiled.step_template()
        for steps, seed in [(0, 0), (7, 1), (19, 2)]:
            state = reachable_state(compiled, steps, seed)
            bindings = {p: x.lift(v) for p, v in state.values.items()}
            memo = {}
            for conditions in template.outcome_conditions.values():
                for condition in conditions:
                    assert substitute(condition, bindings, memo) == eager_fold(
                        condition, bindings
                    )

    def test_untaken_arm_is_never_entered(self):
        flag = Var("p", BOOL)
        value = Var("a", INT)
        # Folding this arm raises: a constant index out of range.
        bad = x.select(ARRAY, x.add(value, Const(5)))
        expr = x.ite(flag, x.add(value, Const(1)), bad)
        bindings = {"p": x.TRUE, "a": Const(2), "arr": Const((1, 2, 3))}
        with pytest.raises(ReproError):
            eager_fold(expr, bindings)
        memo = {}
        assert substitute(expr, bindings, memo) == Const(3)
        assert id(bad) not in memo
        assert id(expr.cond) in memo and id(expr.then) in memo

    @pytest.mark.parametrize(
        "build, deciding",
        [(x.land, x.FALSE), (x.lor, x.TRUE)],
    )
    def test_and_or_stop_at_a_deciding_left_operand(self, build, deciding):
        right = x.lt(Var("a", INT), Var("b", INT))
        expr = build(Var("p", BOOL), right)
        memo = {}
        assert substitute(expr, {"p": deciding}, memo) is deciding
        assert id(right) not in memo

    def test_memo_is_shared_across_calls(self):
        shared = x.add(Var("a", INT), Var("b", INT))
        first = x.lt(shared, Const(3))
        second = x.gt(shared, Const(0))
        memo = {}
        bindings = {"a": Const(1)}
        substitute(first, bindings, memo)
        folded = memo[id(shared)]
        assert substitute(second, bindings, memo) == x.gt(folded, Const(0))
        assert memo[id(shared)] is folded
