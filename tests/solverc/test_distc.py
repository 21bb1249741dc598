"""Exactness of the compiled distance artifacts against the interpreter.

The solver kernel's contract is bit-exactness: the scalar closures and
the batch tapes must produce, element for element, the same float64 the
:class:`~repro.expr.distance.DistanceEvaluator` produces — including the
failure-distance behaviour on evaluation errors.  Hypothesis drives the
comparison over randomized constraints and randomized candidate boxes.
"""

import random
from collections import Counter
from collections.abc import Mapping

import pytest
from hypothesis import given, settings, strategies as st

from repro.expr import ast, ops as x
from repro.expr.ast import Binary, Var
from repro.expr.distance import DistanceEvaluator
from repro.expr.evaluator import evaluate
from repro.expr.nnf import to_nnf
from repro.expr.types import ArrayType, BOOL, INT, REAL
from repro.kernel import compile_expr, exprc
from repro.solver.engine import SolverConfig, SolverEngine
from repro.solverc import compiler as compiler_module
from repro.solverc.compiler import ConstraintCompiler
from repro.solverc.distc import (
    compile_distance_batch,
    compile_distance_scalar,
)
from repro.solverc.tape import NotLowerable

I = Var("i", INT, -100, 100)
J = Var("j", INT, -100, 100)
R = Var("r", REAL, -50.0, 50.0)
B = Var("b", BOOL)
A = Var("a", ArrayType(INT, 3))

VARIABLES = [I, J, R, B]


# -- constraint strategy ---------------------------------------------------

_ATOM_BUILDERS = (x.lt, x.le, x.gt, x.ge, x.eq, x.ne)

_operands = st.sampled_from(
    [I, J, R, x.add(I, J), x.mul(I, 3), x.sub(R, 7.5), x.absolute(I),
     x.minimum(I, J), x.mod(I, 10)]
)


@st.composite
def atoms(draw):
    build = draw(st.sampled_from(_ATOM_BUILDERS))
    left = draw(_operands)
    right = draw(
        st.one_of(
            _operands,
            st.integers(min_value=-120, max_value=120),
        )
    )
    return build(left, right)


@st.composite
def constraints(draw):
    first = draw(atoms())
    rest = draw(st.lists(atoms(), max_size=3))
    expr = first
    for other, combine in zip(
        rest, draw(st.lists(st.sampled_from([x.land, x.lor]),
                            min_size=len(rest), max_size=len(rest)))
    ):
        expr = combine(expr, other)
    if draw(st.booleans()):
        expr = x.land(expr, B)
    return expr


@st.composite
def environments(draw):
    return {
        "i": draw(st.integers(min_value=-100, max_value=100)),
        "j": draw(st.integers(min_value=-100, max_value=100)),
        "r": draw(st.floats(min_value=-50.0, max_value=50.0,
                            allow_nan=False)),
        "b": draw(st.booleans()),
    }


# -- element-wise equivalence ----------------------------------------------


class TestScalarExactness:
    @given(constraint=constraints(), env=environments())
    @settings(max_examples=150, deadline=None)
    def test_scalar_closure_matches_interpreter(self, constraint, env):
        nnf = to_nnf(constraint)
        compiled = compile_distance_scalar(nnf)
        assert compiled(env) == DistanceEvaluator(nnf).distance(env)


class TestBatchExactness:
    @given(
        constraint=constraints(),
        envs=st.lists(environments(), min_size=1, max_size=16),
    )
    @settings(max_examples=150, deadline=None)
    def test_batch_tape_matches_scalar_elementwise(self, constraint, envs):
        """Batched distances over a randomized box of candidates equal the
        per-candidate interpreter distances bit for bit."""
        nnf = to_nnf(constraint)
        batch = compile_distance_batch(nnf, VARIABLES)
        expected = [DistanceEvaluator(nnf).distance(env) for env in envs]
        got = batch.evaluate(envs)
        assert got.shape == (len(envs),)
        assert list(got) == expected


class TestFallbacks:
    def test_unbounded_int_is_not_lowerable(self):
        unbounded = Var("n", INT)  # no domain: exact-float gate must refuse
        constraint = x.gt(x.mul(unbounded, unbounded), 10)
        with pytest.raises(NotLowerable):
            compile_distance_batch(to_nnf(constraint), [unbounded])

    def test_compiled_constraint_falls_back_to_scalar(self):
        """A non-lowerable constraint leaves batch() None (the engine then
        scores candidates through the scalar path) and counts the fallback."""
        unbounded = Var("n", INT)
        constraint = x.gt(x.mul(unbounded, unbounded), 10)
        compiler = ConstraintCompiler()
        bundle = compiler.compile(constraint, [unbounded])
        assert bundle.batch() is None
        assert bundle.batch() is None  # memoized, counted once
        assert compiler.stats.counts["batch_fallbacks"] == 1
        # The scalar objective still works and matches the interpreter.
        objective = bundle.objective()
        assert objective is not None
        env = {"n": 2}
        assert objective(env) == DistanceEvaluator(
            to_nnf(constraint)
        ).distance(env)

    def test_objective_compile_failure_is_counted(self, monkeypatch):
        """A scalar objective that fails to compile leaves objective()
        None (the engine then scores with the interpreter), counted under
        compile_fallbacks, and the solve matches the reference path."""
        def broken(nnf):
            raise RecursionError("too deep")

        monkeypatch.setattr(compiler_module, "compile_distance_scalar", broken)
        constraint = x.land(x.gt(x.mul(I, J), 7), x.lt(R, -49.0))
        compiler = ConstraintCompiler()
        bundle = compiler.compile(constraint, VARIABLES)
        assert bundle.objective() is None
        assert bundle.objective() is None  # memoized, counted once
        assert compiler.stats.counts["compile_fallbacks"] == 1

        config = SolverConfig(max_samples=4, avm_evaluations=200)
        reference = SolverEngine(config).solve(
            constraint, VARIABLES, random.Random(3)
        )
        engine = SolverEngine(config)
        result = engine.solve(
            constraint, VARIABLES, random.Random(3), compiled=bundle
        )
        assert (result.status, result.model, result.stats.stage) == (
            reference.status, reference.model, reference.stats.stage
        )
        assert engine.solverc.counts["avm_compiled"] == 0


def _doubling_dag(levels=12):
    """``(i + j)`` doubled ``levels`` times: 2^levels occurrences of it."""
    expr = x.add(I, J)
    for _ in range(levels):
        expr = x.add(expr, expr)
    return expr


class CountingEnv(Mapping):
    """An environment that counts reads per variable."""

    def __init__(self, values):
        self._values = values
        self.reads = Counter()

    def __getitem__(self, name):
        self.reads[name] += 1
        return self._values[name]

    def __iter__(self):
        return iter(self._values)

    def __len__(self):
        return len(self._values)


class TestSharedDags:
    def test_shared_dag_compiles_and_matches_interpreter(self):
        """The 2^12-occurrence DAG compiles to a scalar objective that
        equals the interpreter at the same points."""
        constraint = x.gt(_doubling_dag(), 0)
        compiler = ConstraintCompiler()
        bundle = compiler.compile(constraint, [I, J])
        objective = bundle.objective()
        assert objective is not None
        assert compiler.stats.counts["compile_fallbacks"] == 0
        reference = DistanceEvaluator(to_nnf(constraint))
        for i, j in [(0, 0), (1, -1), (-3, 1), (100, 100), (-100, 7)]:
            env = {"i": i, "j": j}
            assert objective(env) == reference.distance(env)

    def test_shared_nodes_are_evaluated_once_per_call(self, monkeypatch):
        adds = []

        def counting_add(a, b):
            adds.append(1)
            return a + b

        monkeypatch.setitem(exprc._BINARY, ast.ADD, counting_add)
        dag = _doubling_dag()
        unique_adds = len({
            id(node) for node in dag.walk()
            if isinstance(node, Binary) and node.op == ast.ADD
        })
        objective = compile_distance_scalar(to_nnf(x.gt(dag, 0)))
        for call in (1, 2):
            env = CountingEnv({"i": call, "j": 2 * call})
            assert objective(env) == 0.0
            # One add per unique node and one read per variable: every
            # shared node ran once, and the memo was emptied between calls.
            assert len(adds) == call * unique_adds
            assert env.reads == Counter({"i": 1, "j": 1})


# -- shared subtrees that raise --------------------------------------------

#: Raises OverflowError when j == 0 and i != 0 (real division gives inf).
_QUOTIENT = x.to_int(x.div(I, J))
#: Raises EvalError when the index leaves 0..2.
_ELEMENT = x.select(A, x.mod(I, 5))
#: The unselected branch would raise; the selected one may, too.
_GUARDED = x.ite(x.ne(J, 0), _QUOTIENT, x.add(_QUOTIENT, J))

_SHARED_TERMS = (_QUOTIENT, _ELEMENT, _GUARDED, x.add(_QUOTIENT, _ELEMENT))


@st.composite
def raising_terms(draw):
    term = draw(st.sampled_from(_SHARED_TERMS + (I, J)))
    if draw(st.booleans()):
        term = x.add(term, draw(st.sampled_from(_SHARED_TERMS)))
    return term


@st.composite
def raising_constraints(draw):
    atoms_ = [
        draw(st.sampled_from(_ATOM_BUILDERS))(
            draw(raising_terms()),
            draw(st.one_of(raising_terms(), st.integers(-5, 5))),
        )
        for _ in range(draw(st.integers(min_value=2, max_value=5)))
    ]
    expr = atoms_[0]
    for atom in atoms_[1:]:
        expr = draw(st.sampled_from([x.land, x.lor]))(expr, atom)
    return expr


def _outcome(fn):
    try:
        return "value", fn()
    except Exception as exc:
        return "error", type(exc), str(exc)


class TestSharedErrors:
    @given(
        constraint=raising_constraints(),
        envs=st.lists(
            st.fixed_dictionaries({
                "i": st.integers(min_value=-6, max_value=6),
                "j": st.sampled_from([0, 0, 1, -2, 3]),
                "a": st.just((10, -20, 30)),
            }),
            min_size=1,
            max_size=6,
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_compiled_matches_interpreter_on_raising_shared_nodes(
        self, constraint, envs
    ):
        """Division by zero, an out-of-range select and a guarded ITE,
        each shared by several atoms: one compiled closure, called on a
        sequence of points, gives the interpreter's distances, values and
        errors — a failed node is never memoized and no value leaks from
        one call into the next."""
        nnf = to_nnf(constraint)
        distance = compile_distance_scalar(nnf)
        value = compile_expr(constraint)
        reference = DistanceEvaluator(nnf)
        for env in envs:
            assert distance(env) == reference.distance(env)
            assert _outcome(lambda: value(env)) == _outcome(
                lambda: evaluate(constraint, env)
            )
