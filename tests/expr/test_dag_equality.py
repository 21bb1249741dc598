"""The tests' DAG-aware equality agrees with ``Expr.__eq__`` and stays
linear on heavily shared DAGs, where ``==`` is exponential."""

from hypothesis import given, settings, strategies as st

from repro.expr import ops as x
from repro.expr.ast import BOOL, Const, Var
from repro.expr.types import INT

from tests.expr_dag import DagInterner, dag_equal

INTS = [Var(name, INT) for name in "ab"]
FLAGS = [Var(name, BOOL) for name in "pq"]


def _ints():
    leaves = st.one_of(
        st.sampled_from(INTS), st.integers(-2, 2).map(lambda v: Const(v))
    )
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.tuples(inner, inner).map(lambda t: x.add(*t)),
            st.tuples(inner, inner).map(lambda t: x.mul(*t)),
            st.tuples(st.sampled_from(FLAGS), inner, inner).map(
                lambda t: x.ite(*t)
            ),
            inner.map(x.neg),
        ),
        max_leaves=6,
    )


def _doubling(depth: int, leaf):
    """``e_{k+1} = e_k + e_k``: ``depth + 1`` distinct nodes, a tree of
    ``2^(depth+1) - 1``."""
    expr = leaf
    for _ in range(depth):
        expr = x.add(expr, expr)
    return expr


@given(a=_ints(), b=_ints())
@settings(max_examples=300, deadline=None)
def test_agrees_with_structural_eq(a, b):
    assert dag_equal(a, b) == (a == b)
    assert dag_equal(a, a)


def test_shared_dags_compare_in_linear_time():
    left = _doubling(200, INTS[0])
    right = _doubling(200, Var("a", INT))
    assert left is not right
    assert dag_equal(left, right)
    assert not dag_equal(left, _doubling(200, INTS[1]))


def test_containers_and_ids():
    interner = DagInterner()
    first = x.lt(INTS[0], Const(1))
    second = x.lt(Var("a", INT), Const(1))
    assert interner.intern(first) == interner.intern(second)
    assert interner.intern(first) != interner.intern(x.le(INTS[0], Const(1)))
    assert interner.canon({3: [first, (second, 4)]}) == {
        3: [interner.intern(second), (interner.intern(first), 4)]
    }
    assert not dag_equal([first], [first, first])
