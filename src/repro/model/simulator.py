"""Concrete simulation driver with state snapshot/restore.

The :class:`Simulator` is the "Dynamic Execution" half of STCG's loop: it
steps a compiled model with concrete inputs, reports coverage events into a
collector, and can jump to any previously captured :class:`ModelState`
(`Model.setState` in the paper's pseudo-code).

By default steps run through the model's generated step
(:mod:`repro.kernel.stepgen`): one Python function rendered from the step
template on the first step, observably equivalent to the generic
interpreter.  ``kernel=False`` forces the interpreter (the reference
semantics, and the baseline the equivalence suite compares against).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import SimulationError, StateError
from repro.coverage.collector import CoverageCollector
from repro.expr.types import Type, coerce_value
from repro.kernel.stepgen import EVERYTHING, STEP_ERRORS
from repro.model.context import concrete_context
from repro.model.executor import execute_step
from repro.model.graph import CompiledModel
from repro.model.state import ModelState
from repro.obs.tracer import NULL_TRACER, Tracer


@dataclass
class StepResult:
    """Outcome of one simulation step."""

    outputs: Dict[str, object]
    new_branch_ids: List[int] = field(default_factory=list)
    taken_outcomes: Dict[int, int] = field(default_factory=dict)
    new_obligations: List[object] = field(default_factory=list)

    @property
    def found_new_coverage(self) -> bool:
        """True when the step covered a new branch or condition obligation
        (Algorithm 2's ``newCover``)."""
        return bool(self.new_branch_ids) or bool(self.new_obligations)


@dataclass(frozen=True)
class SequenceResult:
    """Aggregate outcome of :meth:`Simulator.run_sequence`.

    Carries only what the sequence-level callers use — the per-step detail
    (outputs, taken outcomes) is available through the ``on_step`` callback
    instead of a list of per-step objects.
    """

    #: Number of steps executed (== the sequence length unless a step raised).
    steps: int
    #: Branch ids newly covered across the whole sequence, in cover order.
    new_branch_ids: Tuple[int, ...]
    #: Count of condition obligations newly satisfied across the sequence.
    new_obligation_count: int
    #: 1-based index of the *last* step that found new coverage (branches or
    #: obligations); 0 when the sequence covered nothing new.
    last_covering_step: int

    @property
    def found_new_coverage(self) -> bool:
        return self.last_covering_step > 0


def _input_coercer(ty: Type) -> Callable[[object], object]:
    """``coerce_value(value, ty)`` specialized once per inport."""
    if ty.is_bool:
        return bool
    if ty.is_int:
        return int
    if ty.is_real:
        return float
    return lambda value: coerce_value(value, ty)


class Simulator:
    """Steps a compiled model concretely, with snapshot/restore."""

    def __init__(
        self,
        compiled: CompiledModel,
        collector: Optional[CoverageCollector] = None,
        tracer: Tracer = NULL_TRACER,
        kernel: bool = True,
    ):
        self.compiled = compiled
        self.collector = collector
        #: Observability hook; a step is timed only when ``tracer.enabled``
        #: (steps are hot — tens of microseconds — so the disabled path
        #: must not even construct a span).
        self.tracer = tracer
        self._state: Dict[str, object] = compiled.initial_state()
        self._time = 0
        #: Per-inport coercion callables, resolved once instead of walking
        #: the type spec on every step.
        self._coercers: Tuple[Tuple[str, Callable], ...] = tuple(
            (spec.name, _input_coercer(spec.ty)) for spec in compiled.inports
        )
        self._kernel = kernel
        self._kernel_steps = 0

    # -- state management -------------------------------------------------------

    def reset(self) -> None:
        """Return to the model's initial state (the state tree's root S0)."""
        self._state = self.compiled.initial_state()
        self._time = 0

    def get_state(self) -> ModelState:
        return ModelState(self._state)

    def set_state(self, state: ModelState) -> None:
        """Switch the model to a previously captured state."""
        values = state.values
        expected = set(self.compiled.state_elements)
        if set(values) != expected:
            missing = expected - set(values)
            extra = set(values) - expected
            raise StateError(
                "snapshot does not match model layout "
                f"(missing={sorted(missing)[:3]}, extra={sorted(extra)[:3]})"
            )
        self._state = dict(values)

    @property
    def time_index(self) -> int:
        return self._time

    # -- kernel introspection ----------------------------------------------------

    @property
    def kernel_enabled(self) -> bool:
        return self._kernel

    def kernel_stats(self) -> Optional[Dict[str, object]]:
        """Plan items the generated step covers or leaves to the
        interpreter (all of them either way; neither before the first
        step decides), and steps it ran; None with the kernel off."""
        if not self._kernel:
            return None
        plan = self.compiled.plan
        generated = self.compiled.has_step_function
        fallback = generated is False
        return {
            "specialized_blocks": len(plan) if generated else 0,
            "fallback_blocks": len(plan) if fallback else 0,
            "fallback_classes": sorted(
                {type(item.block).__name__ for item in plan} if fallback else ()
            ),
            "kernel_steps": self._kernel_steps,
        }

    # -- stepping ----------------------------------------------------------------

    def step(self, inputs: Mapping[str, object]) -> StepResult:
        """Execute one iteration of the model with concrete ``inputs``."""
        if self.tracer.enabled:
            with self.tracer.span("sim_step"):
                return self._step(inputs)
        return self._step(inputs)

    def _step(self, inputs: Mapping[str, object]) -> StepResult:
        return StepResult(*self._execute(inputs))

    def run(self, sequence: Sequence[Mapping[str, object]]) -> List[StepResult]:
        """Execute a whole input sequence; returns per-step results.

        Compatibility API: builds one :class:`StepResult` per step.  Callers
        that only need aggregate coverage information should use
        :meth:`run_sequence`, which avoids the per-step object churn.
        """
        return [self.step(inputs) for inputs in sequence]

    def run_sequence(
        self,
        sequence: Sequence[Mapping[str, object]],
        on_step: Optional[Callable[[int, Tuple[int, ...], bool], None]] = None,
        on_obligations: Optional[Callable[[int, List[object]], None]] = None,
    ) -> SequenceResult:
        """Execute a whole input sequence without per-step result objects.

        Coverage events thread through the collector exactly as with
        :meth:`step`.  ``on_step(index, new_branch_ids, found_new)`` — if
        given — is invoked after each step (0-based index), once the state
        update for that step is visible via :meth:`get_state`.
        ``on_obligations(index, new_obligations)`` is invoked only for
        steps that satisfied new condition obligations, so callers that
        need the obligation details (e.g. suite minimization's goal
        replay) avoid the per-step :class:`StepResult` churn without
        losing them.
        """
        tracer = self.tracer
        traced = tracer.enabled
        steps = 0
        collected: List[int] = []
        obligations = 0
        covering = 0
        for inputs in sequence:
            if traced:
                with tracer.span("sim_step"):
                    _, new_branches, _, new_obligations = self._execute(inputs)
            else:
                _, new_branches, _, new_obligations = self._execute(inputs)
            steps += 1
            new_branch_ids = tuple(new_branches)
            found_new = bool(new_branch_ids) or bool(new_obligations)
            if found_new:
                covering = steps
                collected.extend(new_branch_ids)
                obligations += len(new_obligations)
                if on_obligations is not None and new_obligations:
                    on_obligations(steps - 1, new_obligations)
            if on_step is not None:
                on_step(steps - 1, new_branch_ids, found_new)
        return SequenceResult(
            steps=steps,
            new_branch_ids=tuple(collected),
            new_obligation_count=obligations,
            last_covering_step=covering,
        )

    # -- internals ---------------------------------------------------------------

    def _execute(self, inputs: Mapping[str, object]):
        """Run one step on ``inputs`` and advance the state; returns
        ``(outputs, new_branch_ids, taken_outcomes, new_obligations)``,
        the fields of a :class:`StepResult`.

        A generated step that raises has changed nothing; the step is
        then rerun through the interpreter, which raises its own error.
        """
        step = self.compiled.step_function() if self._kernel else None
        if step is not None:
            collector = self.collector
            if collector is None:
                covered = seen = EVERYTHING
            else:
                covered, seen = collector.seen_sets()
            try:
                *result, state = step(inputs, self._state, collector, covered, seen)
            except STEP_ERRORS:
                pass
            else:
                self._state = state
                self._time += 1
                self._kernel_steps += 1
                return result
        prepared = self._prepare_inputs(inputs)
        ctx = concrete_context(prepared, self._state, self.collector, self._time)
        outputs = execute_step(self.compiled, ctx)
        self._state.update(ctx.next_state)
        self._time += 1
        return outputs, ctx.new_branches, ctx.taken_outcomes, ctx.new_obligations

    def _prepare_inputs(self, inputs: Mapping[str, object]) -> Dict[str, object]:
        prepared: Dict[str, object] = {}
        for name, coerce in self._coercers:
            if name not in inputs:
                raise SimulationError(f"missing input {name!r}")
            prepared[name] = coerce(inputs[name])
        return prepared
