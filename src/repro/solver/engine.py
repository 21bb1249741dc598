"""The solving pipeline: fold → contract → sample → AVM.

:class:`SolverEngine` is the "constraint solver" STCG calls in Algorithm 1
line 10.  It is budgeted: a call that exhausts its budget returns
``UNKNOWN``, which the caller treats exactly like the paper treats a solver
timeout (try another state / branch).
"""

from __future__ import annotations

import enum
import random
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from repro.errors import ConfigError, SolverError
from repro.expr.ast import Const, Expr, Var
from repro.obs.stages import SolverStageMetrics, canonical_stage
from repro.expr.distance import DistanceEvaluator
from repro.expr.evaluator import evaluate
from repro.expr.nnf import to_nnf
from repro.expr.types import BOOL, INT
from repro.solver.avm import AvmSearch
from repro.solver.box import Box
from repro.solver.contractor import Contractor
from repro.solver.sampler import corner_points, sample_point
from repro.solver.splitter import split_cases
from repro.solverc.compiler import CompiledCase, CompiledConstraint, SolvercStats


class Status(enum.Enum):
    """Outcome of a solver call."""

    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"


@dataclass
class SolverConfig:
    """Budgets and knobs for a :class:`SolverEngine`.

    ``max_samples`` random points are tried after contraction before the AVM
    stage spends up to ``avm_evaluations`` objective evaluations.
    ``time_budget_s`` bounds one ``solve`` call end to end.
    """

    max_samples: int = 64
    avm_evaluations: int = 1500
    time_budget_s: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_samples < 0:
            raise ConfigError(
                f"solver.max_samples must be >= 0, got {self.max_samples!r}"
            )
        if self.avm_evaluations < 0:
            raise ConfigError(
                "solver.avm_evaluations must be >= 0, got "
                f"{self.avm_evaluations!r}"
            )
        if not self.time_budget_s > 0:
            raise ConfigError(
                "solver.time_budget_s must be > 0, got "
                f"{self.time_budget_s!r}"
            )


@dataclass
class SolveStats:
    """Bookkeeping for one solver call.

    ``stage`` is the fine tag of the stage that produced the verdict;
    ``stage_times`` holds wall-clock seconds per *canonical* stage the call
    passed through (see :mod:`repro.obs.stages`).
    """

    status: Status = Status.UNKNOWN
    stage: str = ""
    samples: int = 0
    avm_evaluations: int = 0
    elapsed_s: float = 0.0
    stage_times: Dict[str, float] = field(default_factory=dict)


@dataclass
class SolveResult:
    """A solver verdict plus (for SAT) a complete input assignment."""

    status: Status
    model: Optional[Dict[str, object]] = None
    stats: SolveStats = field(default_factory=SolveStats)


class SolverEngine:
    """Budgeted constraint solver over the expression IR."""

    def __init__(self, config: Optional[SolverConfig] = None):
        self.config = config or SolverConfig()
        self._rng = random.Random(self.config.seed)
        #: Lifetime per-stage attempt/win/time accounting (always on; a
        #: handful of clock reads per call, negligible next to a solve).
        self.metrics = SolverStageMetrics()
        #: Compiled-vs-fallback traffic when callers pass ``compiled=``
        #: bundles (stays all-zero on pure interpreter use).
        self.solverc = SolvercStats()

    def solve(
        self,
        constraint: Expr,
        variables: Iterable[Var],
        rng: Optional[random.Random] = None,
        compiled: Optional[CompiledConstraint] = None,
    ) -> SolveResult:
        """Find values for ``variables`` satisfying ``constraint``.

        ``variables`` must cover every free variable of the constraint; extra
        variables are given arbitrary in-domain values so the returned model
        is always a *complete* input assignment.

        ``compiled`` (a :class:`~repro.solverc.CompiledConstraint` for this
        exact constraint) lets every candidate — corners, samples, split
        cases, AVM steps — be scored by compiled objectives, and lets
        contraction replay its recorded snapshot, with per-objective
        fallback to the interpreter.  Results are bit-identical either
        way; only speed changes.
        """
        if not constraint.ty.is_bool:
            raise SolverError(f"constraint must be boolean, got {constraint.ty!r}")
        rng = rng or self._rng
        started = time.monotonic()
        stats = SolveStats()
        var_list = _dedupe(variables)

        def out_of_time() -> bool:
            return time.monotonic() - started > self.config.time_budget_s

        last_mark = started

        def mark(stage: str) -> None:
            """Attribute the time since the previous mark to ``stage``."""
            nonlocal last_mark
            now = time.monotonic()
            stats.stage_times[stage] = (
                stats.stage_times.get(stage, 0.0) + (now - last_mark)
            )
            last_mark = now

        def finish(status: Status, model=None, stage: str = "") -> SolveResult:
            mark(canonical_stage(stage))
            stats.status = status
            stats.stage = stage
            stats.elapsed_s = time.monotonic() - started
            self.metrics.record(stats)
            return SolveResult(status, model, stats)

        # Stage 0: constant constraint.
        if isinstance(constraint, Const):
            if constraint.value:
                box = Box(var_list)
                return finish(
                    Status.SAT, self._certify(constraint, {}, box), "fold"
                )
            return finish(Status.UNSAT, stage="fold")

        # Stage 1: interval contraction.
        box = Box(var_list)
        feasible = self._contract(constraint, box, compiled)
        if not feasible:
            return finish(Status.UNSAT, stage="contract")
        mark("contract")

        nnf = compiled.nnf() if compiled is not None else to_nnf(constraint)
        objective = _objective(compiled, nnf)

        # Stage 2: deterministic corners then random samples inside the box.
        best_env: Optional[Dict[str, object]] = None
        best_dist = float("inf")
        corners = corner_points(box)
        if compiled is not None:
            self.solverc.note("candidates_scalar", len(corners))
        for candidate in corners:
            stats.samples += 1
            d = objective(candidate)
            if d < best_dist:
                best_env, best_dist = candidate, d
            if d == 0.0:
                return finish(
                    Status.SAT,
                    self._certify(constraint, candidate, box),
                    "corner",
                )
        if compiled is not None:
            self.solverc.note("candidates_scalar", self.config.max_samples)
        for _ in range(self.config.max_samples):
            if out_of_time():
                return finish(Status.UNKNOWN, stage="sample-timeout")
            candidate = sample_point(box, rng)
            stats.samples += 1
            d = objective(candidate)
            if d < best_dist:
                best_env, best_dist = candidate, d
            if d == 0.0:
                return finish(
                    Status.SAT,
                    self._certify(constraint, candidate, box),
                    "sample",
                )

        # Stage 3: disjunction splitting — contract and sample each OR case
        # separately.  Any satisfied case is SAT; all cases proven
        # inconsistent is UNSAT.
        mark("sample")
        if compiled is not None:
            cases = [(entry.constraint, entry) for entry in compiled.cases()]
        else:
            cases = [(case, None) for case in split_cases(nnf)]
        if len(cases) > 1:
            all_unsat = True
            per_case = max(4, self.config.max_samples // len(cases))
            for case, entry in cases:
                if out_of_time():
                    all_unsat = False
                    break
                case_box = Box(var_list)
                if not self._contract(case, case_box, entry):
                    continue
                all_unsat = False
                if entry is not None:
                    case_nnf = entry.nnf()
                    if entry.objective() is None:
                        self.solverc.note("case_interpreted")
                else:
                    case_nnf = to_nnf(case)
                case_distance = _objective(entry, case_nnf)
                for candidate in corner_points(case_box):
                    stats.samples += 1
                    if case_distance(candidate) == 0.0:
                        return finish(
                            Status.SAT,
                            self._certify(constraint, candidate, box),
                            "split-corner",
                        )
                for _ in range(per_case):
                    candidate = sample_point(case_box, rng)
                    stats.samples += 1
                    if case_distance(candidate) == 0.0:
                        return finish(
                            Status.SAT,
                            self._certify(constraint, candidate, box),
                            "split-sample",
                        )
                    whole = objective(candidate)
                    if whole < best_dist:
                        best_env, best_dist = candidate, whole
            if all_unsat:
                return finish(Status.UNSAT, stage="split")
            mark("split")

        # Stage 4: AVM from the best point seen so far.
        if compiled is not None and compiled.objective() is not None:
            self.solverc.note("avm_compiled")
        search = AvmSearch(
            objective,
            box,
            rng,
            max_evaluations=self.config.avm_evaluations,
            deadline=out_of_time,
        )
        result = search.run(best_env)
        stats.avm_evaluations = result.evaluations
        if result.satisfied:
            return finish(Status.SAT, self._certify(constraint, result.env, box), "avm")
        return finish(Status.UNKNOWN, stage="avm")

    def _contract(self, constraint: Expr, box: Box, compiled) -> bool:
        """Contract ``box``, replaying a recorded contraction if any.

        ``compiled`` is the :class:`~repro.solverc.compiler.CompiledCase`
        of ``constraint`` (a whole-constraint bundle or one of its split
        cases) or None for the pure interpreter path.  Contraction is a
        pure function of the constraint and the freshly built box, so
        the (feasible, snapshot) pair the first use records replays the
        exact narrowing on every later use.
        """
        if compiled is None:
            return Contractor(constraint).contract(box)
        cached = compiled.contract_result
        if cached is not None:
            feasible, snapshot = cached
            box.restore(snapshot)
            self.solverc.note("contract_cached")
            return feasible
        feasible = Contractor(constraint).contract(box)
        self.solverc.note("contract_interpreted")
        compiled.contract_result = (feasible, box.snapshot())
        return feasible

    # ------------------------------------------------------------------

    def _certify(
        self, constraint: Expr, env: Dict[str, object], box: Box
    ) -> Dict[str, object]:
        """Re-check a candidate and normalize it into a complete model.

        Variables the constraint does not mention are *resampled* randomly:
        a caller storing solver models in an input library (STCG's Figure 2)
        then gets diverse values on the don't-care inputs instead of the
        corner points the search happened to start from.
        """
        from repro.expr.variables import free_variables

        constrained = set(free_variables(constraint))
        filler = sample_point(box, self._rng)
        model: Dict[str, object] = {}
        for name, _ in box:
            source = env if name in constrained and name in env else filler
            var = box.var(name)
            value = source[name]
            if var.ty is BOOL:
                model[name] = bool(value)
            elif var.ty is INT:
                model[name] = int(value)
            else:
                model[name] = float(value)
        if evaluate(constraint, model) is not True:
            raise SolverError(
                "internal error: zero-distance candidate failed verification"
            )
        return model


def _objective(compiled: Optional[CompiledCase], nnf: Expr):
    """The bundle's compiled ``env -> distance`` objective, or the
    interpreter's over ``nnf`` when there is no bundle or its compilation
    failed."""
    scalar = compiled.objective() if compiled is not None else None
    if scalar is None:
        return DistanceEvaluator(nnf).distance
    return scalar


def _dedupe(variables: Iterable[Var]) -> List[Var]:
    seen = set()
    result: List[Var] = []
    for var in variables:
        if var.name not in seen:
            seen.add(var.name)
            result.append(var)
    return result
