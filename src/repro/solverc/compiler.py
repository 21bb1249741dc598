"""Per-constraint compilation bundles and solver-kernel statistics.

:class:`ConstraintCompiler` turns one solver constraint (an
``OneStepEncoding`` path or obligation constraint) into a
:class:`CompiledConstraint`: a lazily compiled scalar distance objective,
lazily compiled split cases (each a :class:`CompiledCase` with its own
objective), and a slot for the recorded contraction result.  Laziness is
load-bearing: most solver calls die at the contract stage, so an
objective is only built when a sampling stage actually needs it, and the
generator defers the whole bundle to the second visit of a (state,
target) pair (see ``repro.cache.SolveCache.compiled_constraint``).  An
objective is a closure first and a generated function once it is hot
(:data:`HOT_EVALUATIONS`).

Compiled bundles are cached by state fingerprint, so re-visits of a
(state, branch) pair across engines and runs reuse the artifacts — and
the cached contraction *result*, which is a pure function of the
constraint and the initial box.
"""

from __future__ import annotations

from typing import Dict, List

from repro.errors import ExprError
from repro.expr.ast import Expr
from repro.expr.nnf import to_nnf
from repro.solver.splitter import split_cases
from repro.solverc.distc import compile_distance_scalar, generate_distance

__all__ = [
    "CompiledCase",
    "CompiledConstraint",
    "ConstraintCompiler",
    "SolvercStats",
]

_UNSET = object()

#: Evaluations after which an objective swaps its closure for a generated
#: function (:func:`~repro.solverc.distc.generate_distance`).  Rendering
#: and ``compile()`` cost about 1.4 ms an objective (median, SLDV depth-3
#: constraints) and the generated function saves about 4.5 us a call on
#: them, so it pays back after about 300 calls.  Calls per objective are
#: very uneven: on the benchmark's SLDV depth-3 cells 54 of 176
#: objectives reach 200 evaluations and carry 98.5 % of them, and on its
#: warm-store STCG cells 2 of 81 reach 100 evaluations.  Waiting this
#: long generates only objectives that are about to repay it.
HOT_EVALUATIONS = 256


class SolvercStats:
    """Fixed-key counters of compiled-vs-fallback solver traffic."""

    KEYS = (
        "constraints_compiled",
        "objective_compiles",
        "compile_fallbacks",
        "contract_cached",
        "contract_interpreted",
        "candidates_scalar",
        "case_interpreted",
        "avm_compiled",
        "objectives_generated",
        "generate_fallbacks",
    )

    __slots__ = ("counts",)

    def __init__(self):
        self.counts: Dict[str, int] = {key: 0 for key in self.KEYS}

    def note(self, key: str, amount: int = 1) -> None:
        self.counts[key] += amount

    def as_dict(self) -> Dict[str, int]:
        return dict(self.counts)

    def merge(self, other: "SolvercStats") -> "SolvercStats":
        for key, value in other.counts.items():
            self.counts[key] += value
        return self


class CompiledCase:
    """Compiled artifacts for one constraint or disjunctive split case."""

    __slots__ = ("constraint", "contract_result", "_nnf", "_objective", "_stats")

    def __init__(self, constraint: Expr, stats: SolvercStats):
        self.constraint = constraint
        #: (feasible, box-snapshot) of this constraint's contraction,
        #: filled in by the engine on first use.  Contraction is a pure
        #: function of (constraint, initial box), so replay is exact.
        self.contract_result = None
        self._nnf = _UNSET
        self._objective = _UNSET
        self._stats = stats

    def nnf(self) -> Expr:
        if self._nnf is _UNSET:
            self._nnf = to_nnf(self.constraint)
        return self._nnf

    def objective(self):
        """Compiled scalar ``env -> distance`` function, or None.

        It starts as the closure of
        :func:`~repro.solverc.distc.compile_distance_scalar`, which
        carries a per-call memo over the constraint's shared nodes, so a
        shared DAG costs what it costs the memoizing interpreter, once
        per node.  On its :data:`HOT_EVALUATIONS`-th call it swaps the
        closure for the generated function of
        :func:`~repro.solverc.distc.generate_distance`, which returns the
        same float; a generation that fails keeps the closure.  The two
        outcomes are counted under ``objectives_generated`` and
        ``generate_fallbacks``.  Every compilation attempt is counted
        under ``objective_compiles``; None only when it fails (counted
        under ``compile_fallbacks``), and the engine then scores with the
        interpreter.
        """
        if self._objective is _UNSET:
            self._stats.note("objective_compiles")
            try:
                closure = compile_distance_scalar(self.nnf())
            except Exception:
                self._objective = None
                self._stats.note("compile_fallbacks")
            else:
                self._objective = _tiered(self.nnf(), closure, self._stats)
        return self._objective


def _tiered(nnf: Expr, closure, stats: SolvercStats):
    """``closure``, swapped for the generated function of ``nnf`` on its
    :data:`HOT_EVALUATIONS`-th call."""
    current = closure
    calls = 0

    def objective(env):
        nonlocal current, calls
        if calls < HOT_EVALUATIONS:
            calls += 1
            if calls == HOT_EVALUATIONS:
                current = _generate(nnf, closure, stats)
        return current(env)

    return objective


def _generate(nnf: Expr, closure, stats: SolvercStats):
    try:
        function = generate_distance(nnf, closure)
    except (ExprError, SyntaxError, RecursionError):
        stats.note("generate_fallbacks")
        return closure
    stats.note("objectives_generated")
    return function


class CompiledConstraint(CompiledCase):
    """A whole solver constraint's bundle: its own artifacts plus its
    split cases, all built lazily."""

    __slots__ = ("_cases",)

    def __init__(self, constraint: Expr, stats: SolvercStats):
        super().__init__(constraint, stats)
        self._cases = _UNSET

    def cases(self) -> List[CompiledCase]:
        """Split cases (possibly a single one), compiled on first use."""
        if self._cases is _UNSET:
            self._cases = [
                CompiledCase(case, self._stats)
                for case in split_cases(self.nnf())
            ]
        return self._cases


class ConstraintCompiler:
    """Compiles solver constraints; owns the compile-side counters."""

    def __init__(self):
        self.stats = SolvercStats()

    def compile(self, constraint: Expr) -> CompiledConstraint:
        """The :class:`CompiledConstraint` bundle of ``constraint``."""
        self.stats.note("constraints_compiled")
        return CompiledConstraint(constraint, self.stats)
