"""The solver kernel: compiled forms of the symbolic hot path.

``repro.solverc`` is to :mod:`repro.solver` what :mod:`repro.kernel` is to
the concrete simulator: each (state, branch) constraint — and each of its
disjunctive split cases — is compiled once into a flat scalar
branch-distance closure, and its interval contraction is recorded once
and replayed as a box snapshot.  Every stage falls back to the
interpreter when a compilation fails.  The compiled forms are
observationally exact: fixed-seed solver runs are bit-identical with the
kernel on or off (see DESIGN.md, "Solver-kernel soundness").
"""

from repro.solverc.compiler import (
    CompiledCase,
    CompiledConstraint,
    ConstraintCompiler,
    SolvercStats,
)

__all__ = [
    "CompiledCase",
    "CompiledConstraint",
    "ConstraintCompiler",
    "SolvercStats",
]
