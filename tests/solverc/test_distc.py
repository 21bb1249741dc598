"""Exactness of the compiled distance objectives against the interpreter.

The solver kernel's contract is bit-exactness: the scalar closures — of
a whole constraint and of each of its split cases — must produce the
same float the :class:`~repro.expr.distance.DistanceEvaluator` produces,
including the failure-distance behaviour on evaluation errors.
Hypothesis drives the comparison over randomized constraints and
randomized candidate points.
"""

import random
from collections import Counter
from collections.abc import Mapping

from hypothesis import given, settings, strategies as st

from repro.expr import ast, ops as x
from repro.expr.ast import Binary, Var
from repro.expr.distance import DistanceEvaluator
from repro.expr.evaluator import evaluate
from repro.expr.nnf import to_nnf
from repro.expr.types import ArrayType, BOOL, INT, REAL
from repro.kernel import compile_expr, exprc
from repro.solver.engine import SolverConfig, SolverEngine
from repro.solver.splitter import split_cases
from repro.solverc import compiler as compiler_module
from repro.solverc.compiler import ConstraintCompiler
from repro.solverc.distc import compile_distance_scalar

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
        # Every split case's compiled objective — what the split stage
        # scores its candidates with — equals the interpreter's, too.
        cases = ConstraintCompiler().compile(constraint).cases()
        assert len(cases) == len(split_cases(nnf))
        for entry, case in zip(cases, split_cases(nnf)):
            reference = DistanceEvaluator(to_nnf(case))
            assert entry.objective()(env) == reference.distance(env)


class TestFallbacks:
    def test_objective_compile_failure_is_counted(self, monkeypatch):
        """Objectives that fail to compile — the whole constraint's and a
        split case's — leave objective() None, are counted under
        compile_fallbacks, and are scored by the interpreter: the solve
        still matches the reference path."""
        def broken(nnf):
            raise RecursionError("too deep")

        monkeypatch.setattr(compiler_module, "compile_distance_scalar", broken)
        # Both cases survive contraction and miss in the split stage, so
        # the solve scores split cases and then runs AVM, each through
        # the interpreter.
        constraint = x.lor(
            x.land(x.eq(x.mul(I, J), 1517), x.lt(R, -49.0)),
            x.land(x.eq(x.mul(I, J), -1763), x.gt(R, 49.0)),
        )
        compiler = ConstraintCompiler()
        bundle = compiler.compile(constraint)
        assert bundle.objective() is None
        assert bundle.objective() is None  # memoized, counted once
        assert compiler.stats.counts["compile_fallbacks"] == 1

        config = SolverConfig(max_samples=4, avm_evaluations=200)
        reference = SolverEngine(config).solve(
            constraint, VARIABLES, random.Random(0)
        )
        engine = SolverEngine(config)
        result = engine.solve(
            constraint, VARIABLES, random.Random(0), compiled=bundle
        )
        assert (result.status, result.model, result.stats.stage) == (
            reference.status, reference.model, reference.stats.stage
        )
        assert result.stats.stage == "avm"
        assert [case.objective() for case in bundle.cases()] == [None, None]
        assert compiler.stats.counts["compile_fallbacks"] == 3
        assert compiler.stats.counts["objective_compiles"] == 3
        assert engine.solverc.counts["case_interpreted"] == 2
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
        bundle = compiler.compile(constraint)
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
