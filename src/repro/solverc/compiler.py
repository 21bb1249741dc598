"""Per-constraint compilation bundles and solver-kernel statistics.

:class:`ConstraintCompiler` turns one solver constraint (an
``OneStepEncoding`` path or obligation constraint) into a
:class:`CompiledConstraint`: a lazily compiled scalar distance objective,
lazily compiled split cases (each a :class:`CompiledCase` with its own
objective), and a slot for the recorded contraction result.  Laziness is
load-bearing: most solver calls die at the contract stage, so an
objective is only built when a sampling stage actually needs it, and the
generator defers the whole bundle to the second visit of a (state,
target) pair (see ``repro.cache.SolveCache.compiled_constraint``).

Compiled bundles are cached by state fingerprint, so re-visits of a
(state, branch) pair across engines and runs reuse the artifacts — and
the cached contraction *result*, which is a pure function of the
constraint and the initial box.
"""

from __future__ import annotations

from typing import Dict, List

from repro.expr.ast import Expr
from repro.expr.nnf import to_nnf
from repro.solver.splitter import split_cases
from repro.solverc.distc import compile_distance_scalar

__all__ = [
    "CompiledCase",
    "CompiledConstraint",
    "ConstraintCompiler",
    "SolvercStats",
]

_UNSET = object()


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
        """Compiled scalar ``env -> distance`` closure, or None.

        The closure carries a per-call memo over the constraint's shared
        nodes, so a shared DAG costs what it costs the memoizing
        interpreter, once per node.  Every compilation attempt is counted
        under ``objective_compiles``; None only when it fails (counted
        under ``compile_fallbacks``), and the engine then scores with the
        interpreter.
        """
        if self._objective is _UNSET:
            self._stats.note("objective_compiles")
            try:
                self._objective = compile_distance_scalar(self.nnf())
            except Exception:
                self._objective = None
                self._stats.note("compile_fallbacks")
        return self._objective


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
