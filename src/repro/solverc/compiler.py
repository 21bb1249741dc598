"""Per-constraint compilation bundles and solver-kernel statistics.

:class:`ConstraintCompiler` turns one solver constraint (an
``OneStepEncoding`` path or obligation constraint) into a
:class:`CompiledConstraint`: an optional compiled HC4 contractor plus
lazily compiled distance artifacts (scalar closure, batch tape, split
cases).  Laziness is load-bearing: most solver calls die at the
contract stage, and each (fingerprint, target) pair is typically solved
exactly once per run, so a compiled piece must pay for itself within
the calls that need it.  The distance pieces are only built when the
sampling stages are actually reached, and the generator defers the
whole bundle to the second visit of a pair (see
``repro.cache.SolveCache.compiled_constraint``).

Compiled bundles are cached by the PR 3 state fingerprints (see
``repro.cache.SolveCache.compiled_constraint``), so re-visits of a
(state, branch) pair across engines and runs reuse the artifacts — and
the cached contraction *result*, which is a pure function of the
constraint and the initial box.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.expr.ast import Expr, Var
from repro.expr.nnf import to_nnf
from repro.solver.splitter import split_cases
from repro.solverc.contractc import CompiledContractor, compile_contractor
from repro.solverc.distc import (
    BatchDistance,
    compile_distance_batch,
    compile_distance_scalar,
)
from repro.solverc.tape import NotLowerable

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
        "compile_fallbacks",
        "batch_lowered",
        "batch_fallbacks",
        "contract_compiled",
        "contract_cached",
        "contract_interpreted",
        "candidates_batched",
        "candidates_scalar",
        "case_batched",
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
    """Compiled artifacts for one disjunctive split case."""

    __slots__ = (
        "case",
        "contractor",
        "contract_result",
        "_batch",
        "_stats",
        "_variables",
    )

    def __init__(self, case: Expr, variables: List[Var], stats: SolvercStats):
        self.case = case
        self.contract_result = None
        self._batch = _UNSET
        self._stats = stats
        self._variables = variables
        try:
            self.contractor: Optional[CompiledContractor] = (
                compile_contractor(case)
            )
        except Exception:
            self.contractor = None
            stats.note("compile_fallbacks")

    def batch(self) -> Optional[BatchDistance]:
        """The case-distance batch tape, or None when not lowerable."""
        if self._batch is _UNSET:
            try:
                self._batch = compile_distance_batch(
                    to_nnf(self.case), self._variables
                )
                self._stats.note("batch_lowered")
            except NotLowerable:
                self._batch = None
                self._stats.note("batch_fallbacks")
        return self._batch


class CompiledConstraint:
    """All compiled forms of one solver constraint, built lazily."""

    __slots__ = (
        "constraint",
        "variables",
        "contractor",
        "contract_result",
        "_nnf",
        "_objective",
        "_batch",
        "_cases",
        "_stats",
    )

    def __init__(
        self,
        constraint: Expr,
        variables: List[Var],
        contractor: Optional[CompiledContractor],
        stats: SolvercStats,
    ):
        self.constraint = constraint
        self.variables = variables
        self.contractor = contractor
        #: (feasible, box-snapshot) of the whole-constraint contraction,
        #: filled in by the engine on first use.  Contraction is a pure
        #: function of (constraint, initial box), so replay is exact.
        self.contract_result = None
        self._nnf = _UNSET
        self._objective = _UNSET
        self._batch = _UNSET
        self._cases = _UNSET
        self._stats = stats

    def nnf(self) -> Expr:
        if self._nnf is _UNSET:
            self._nnf = to_nnf(self.constraint)
        return self._nnf

    def objective(self):
        """Compiled scalar ``env -> distance`` closure, or None.

        The closure carries a per-call memo over the constraint's shared
        nodes, so a shared DAG costs what it costs the memoizing
        interpreter, once per node.  None only when compilation itself
        fails (counted under ``compile_fallbacks``); the engine then
        scores with the interpreter.  Compiled on first use, so a solve
        that ends in batch sampling never builds it.
        """
        if self._objective is _UNSET:
            try:
                self._objective = compile_distance_scalar(self.nnf())
            except Exception:
                self._objective = None
                self._stats.note("compile_fallbacks")
        return self._objective

    def batch(self) -> Optional[BatchDistance]:
        """Whole-constraint batch distance tape, or None."""
        if self._batch is _UNSET:
            try:
                self._batch = compile_distance_batch(
                    self.nnf(), self.variables
                )
                self._stats.note("batch_lowered")
            except NotLowerable:
                self._batch = None
                self._stats.note("batch_fallbacks")
        return self._batch

    def cases(self) -> List[CompiledCase]:
        """Split cases (possibly a single one), compiled on first use."""
        if self._cases is _UNSET:
            self._cases = [
                CompiledCase(case, self.variables, self._stats)
                for case in split_cases(self.nnf())
            ]
        return self._cases


class ConstraintCompiler:
    """Compiles solver constraints; owns the compile-side counters."""

    def __init__(self):
        self.stats = SolvercStats()

    def compile(
        self,
        constraint: Expr,
        variables: Iterable[Var],
        *,
        contractor: bool = True,
    ) -> CompiledConstraint:
        """Compile ``constraint`` into a :class:`CompiledConstraint`.

        ``contractor=False`` skips compiling the HC4 contractor: a
        caller that caches bundles per (fingerprint, target) replays the
        stored contraction *snapshot* from the second use on, so the
        engine's interpreted contractor runs exactly once either way and
        the compiled walk would never be exercised.
        """
        var_list = _dedupe(variables)
        compiled_contractor = None
        if contractor:
            try:
                compiled_contractor = compile_contractor(constraint)
            except Exception:
                self.stats.note("compile_fallbacks")
        self.stats.note("constraints_compiled")
        return CompiledConstraint(
            constraint, var_list, compiled_contractor, self.stats
        )


def _dedupe(variables: Iterable[Var]) -> List[Var]:
    # Same first-occurrence order as the engine's own _dedupe, so the
    # compiled tape's columns line up with the engine's Box.
    seen = set()
    result: List[Var] = []
    for var in variables:
        if var.name not in seen:
            seen.add(var.name)
            result.append(var)
    return result
