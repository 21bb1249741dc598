"""Chart block: embeds a :class:`ChartSpec` into a model.

The chart's location, locals and outputs are state elements in the
``chart`` category (the paper's M/ML).  Concrete steps run the transition
logic procedurally and feed the coverage collector; symbolic steps build a
merged one-step encoding — with a *constant* location (STCG's state-aware
solving) the encoding collapses to the active state's transitions, while a
*symbolic* location (the model's step template, which the SLDV-like unroller
composes) expands into an ITE merge over every leaf state, which is
precisely the blow-up the paper attributes to whole-model constraint
solving.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ChartError
from repro.coverage.registry import Branch, CoverageRegistry, DecisionKind
from repro.expr import ops as x
from repro.expr.ast import Expr
from repro.expr.evaluator import evaluate
from repro.expr.types import INT
from repro.expr.variables import substitute
from repro.model.block import Block, STATE_CHART, StateElement
from repro.stateflow.spec import ChartSpec, StateDef, TransitionDef, extract_atoms

Frame = Dict[str, object]


class ChartBlock(Block):
    """Executable embedding of a chart spec."""

    def __init__(self, name: str, spec: ChartSpec):
        spec.finalize()
        super().__init__(name, len(spec.input_names), len(spec.output_names))
        self.spec = spec
        self._decisions: Dict[int, object] = {}  # transition index -> Decision
        self._points: Dict[int, Tuple[object, List[Expr]]] = {}
        self._pending: Dict[int, Frame] = {}

    # -- state ----------------------------------------------------------------

    def state_spec(self) -> Sequence[StateElement]:
        elements = [
            StateElement("loc", INT, self.spec.initial_leaf().location, STATE_CHART)
        ]
        for variable in self.spec.variables.values():
            if variable.role == "input":
                continue
            elements.append(
                StateElement(variable.name, variable.ty, variable.init, STATE_CHART)
            )
        return tuple(elements)

    # -- coverage ----------------------------------------------------------------

    def register_coverage(
        self, registry: CoverageRegistry, parent: Optional[Branch]
    ) -> None:
        for transition in self.spec.transitions:
            label = (
                f"{self.path}/t{transition.index}:"
                f"{transition.source.name}->{transition.target.name}"
            )
            decision = registry.register_decision(
                label,
                DecisionKind.TRANSITION,
                ("taken", "not_taken"),
                parent,
                extra_depth=transition.source.depth(),
            )
            self._decisions[transition.index] = decision
            atoms, structure = extract_atoms(transition.guard)
            if atoms:
                labels = [f"atom{i}" for i in range(len(atoms))]
                point = registry.register_condition_point(label, labels, structure)
                self._points[transition.index] = (point, atoms)

    def evaluation_order(self) -> List[List[Tuple[object, object]]]:
        """Per leaf location, ``(condition point or None, decision)`` of
        each transition a concrete step evaluates there, in the order
        ``_step_concrete`` reports their coverage events."""
        return [
            [
                (self._points.get(t.index, (None,))[0], self._decisions[t.index])
                for t in self.spec.candidates_for(leaf)
            ]
            for leaf in self.spec.leaves
        ]

    # -- execution ---------------------------------------------------------------

    def compute(self, ctx, inputs: List[object]) -> List[object]:
        frame: Frame = dict(zip(self.spec.input_names, inputs))
        for name in self.spec.local_names + self.spec.output_names:
            frame[name] = ctx.read_state(self, name)
        loc = ctx.read_state(self, "loc")
        if getattr(ctx.vo, "abstract", False):
            result = self._step_abstract(ctx, frame, loc)
        elif ctx.vo.symbolic:
            result = self._step_symbolic(ctx, frame, loc)
        else:
            result = self._step_concrete(ctx, frame, int(loc))
        self._pending[id(ctx)] = result
        return [result[name] for name in self.spec.output_names]

    def update(self, ctx, inputs, outputs) -> None:
        result = self._pending.pop(id(ctx), None)
        if result is None:
            raise ChartError(f"chart {self.path!r} update without compute")
        ctx.write_state(self, "loc", result["__loc"])
        for name in self.spec.local_names + self.spec.output_names:
            ctx.write_state(self, name, result[name])

    # -- concrete step ---------------------------------------------------------

    def _step_concrete(self, ctx, frame: Frame, loc: int) -> Frame:
        leaf = self.spec.leaves[loc]
        candidates = self.spec.candidates_for(leaf)
        fired: Optional[TransitionDef] = None
        for transition in candidates:
            taken = self._eval_guard_concrete(ctx, transition, frame)
            decision = self._decisions[transition.index]
            ctx.on_decision(decision, 0 if taken else 1)
            if taken:
                fired = transition
                break
        result = dict(frame)
        if fired is not None:
            for assignment in fired.actions:
                result[assignment.target] = evaluate(assignment.expr, result)
            target_leaf = self.spec.enter_target(fired.target)
            for state in self.spec.entry_chain(fired.target):
                for assignment in state.entry:
                    result[assignment.target] = evaluate(assignment.expr, result)
            result["__loc"] = target_leaf.location
        else:
            for assignment in leaf.during:
                result[assignment.target] = evaluate(assignment.expr, result)
            result["__loc"] = loc
        return result

    def _eval_guard_concrete(self, ctx, transition: TransitionDef, frame: Frame) -> bool:
        instrumented = self._points.get(transition.index)
        if instrumented is not None:
            point, atoms = instrumented
            vector = tuple(bool(evaluate(atom, frame)) for atom in atoms)
            ctx.on_condition_vector(point, vector)
        return bool(evaluate(transition.guard, frame))

    # -- symbolic step ---------------------------------------------------------

    def _step_symbolic(self, ctx, frame: Frame, loc) -> Frame:
        lifted: Frame = {k: x.lift(v) for k, v in frame.items()}
        loc_expr = x.lift(loc)
        #: transition index -> OR of taken / evaluated-but-not-taken
        #: conditions across leaves.  "Not taken" only counts where the
        #: guard is actually evaluated (source active, no higher-priority
        #: transition fired) — matching the concrete coverage semantics.
        taken_conditions: Dict[int, Expr] = {
            t.index: x.FALSE for t in self.spec.transitions
        }
        not_taken_conditions: Dict[int, Expr] = {
            t.index: x.FALSE for t in self.spec.transitions
        }
        if loc_expr.is_const:
            leaves = [self.spec.leaves[int(loc_expr.const_value())]]
        else:
            leaves = self.spec.leaves
        #: transition index -> OR over leaves of (active && evaluated).
        atom_contexts: Dict[int, Expr] = {}
        merged: Optional[Frame] = None
        for leaf in leaves:
            leaf_frame, leaf_taken, leaf_contexts = self._leaf_step_symbolic(
                lifted, leaf
            )
            active = x.eq(loc_expr, leaf.location)
            for index, condition in leaf_taken.items():
                taken_conditions[index] = x.lor(
                    taken_conditions[index], x.land(active, condition)
                )
                evaluated = leaf_contexts[index]
                not_taken = x.land(evaluated, x.lnot(condition))
                not_taken_conditions[index] = x.lor(
                    not_taken_conditions[index], x.land(active, not_taken)
                )
                if index in self._points:
                    atom_contexts[index] = x.lor(
                        atom_contexts.get(index, x.FALSE),
                        x.land(active, evaluated),
                    )
            if merged is None:
                merged = leaf_frame
            else:
                merged = {
                    key: x.ite(active, leaf_frame[key], merged[key])
                    for key in leaf_frame
                }
        assert merged is not None
        for index, evaluated in atom_contexts.items():
            point, atoms = self._points[index]
            atom_exprs = [self._subst(atom, frame) for atom in atoms]
            ctx.record_condition_atoms(point, atom_exprs, evaluated)
        for transition in self.spec.transitions:
            decision = self._decisions[transition.index]
            ctx.record_outcome_conditions(
                decision,
                [
                    taken_conditions[transition.index],
                    not_taken_conditions[transition.index],
                ],
            )
        return merged

    def _leaf_step_symbolic(
        self, frame: Frame, leaf: StateDef
    ) -> Tuple[Frame, Dict[int, Expr], Dict[int, Expr]]:
        """One-leaf encoding: merged frame, per-transition take conditions,
        and per-transition *evaluation* conditions (a guard is only evaluated
        when every higher-priority guard was false)."""
        candidates = self.spec.candidates_for(leaf)
        # During (no transition) result first; transitions merge in reverse.
        during_frame = dict(frame)
        for assignment in leaf.during:
            during_frame[assignment.target] = self._subst(
                assignment.expr, during_frame
            )
        during_frame["__loc"] = x.lift(leaf.location)

        guards = [self._subst(t.guard, frame) for t in candidates]
        taken: Dict[int, Expr] = {}
        contexts: Dict[int, Expr] = {}
        none_before: Expr = x.TRUE
        take_exprs: List[Expr] = []
        for transition, guard in zip(candidates, guards):
            contexts[transition.index] = none_before
            take_exprs.append(x.land(none_before, guard))
            none_before = x.land(none_before, x.lnot(guard))
        for transition, take in zip(candidates, take_exprs):
            taken[transition.index] = take

        merged = during_frame
        for transition, take in zip(reversed(candidates), reversed(take_exprs)):
            branch_frame = dict(frame)
            for assignment in transition.actions:
                branch_frame[assignment.target] = self._subst(
                    assignment.expr, branch_frame
                )
            for state in self.spec.entry_chain(transition.target):
                for assignment in state.entry:
                    branch_frame[assignment.target] = self._subst(
                        assignment.expr, branch_frame
                    )
            branch_frame["__loc"] = x.lift(
                self.spec.enter_target(transition.target).location
            )
            merged = {
                key: x.ite(take, branch_frame[key], merged[key]) for key in merged
            }
        return merged, taken, contexts

    # -- abstract (interval) step -----------------------------------------------

    def _step_abstract(self, ctx, frame: Frame, loc) -> Frame:
        """One sound over-approximating step over the interval domain.

        The location may be an interval covering several leaves; every leaf
        in range contributes its feasible transitions (guards evaluated over
        intervals), and the results are hulled.  Per transition the recorded
        "taken" condition is the hull of its guard over the active leaves —
        ``definitely_false`` there is a proof the transition can never fire
        from any state inside the envelope.
        """
        from repro.analysis.interval_eval import interval_eval
        from repro.analysis.intervalops import hull as a_hull, lift as a_lift
        from repro.solver.interval import (
            BOOL_FALSE,
            BOOL_UNKNOWN,
            Interval,
        )

        frame = {name: a_lift(value) for name, value in frame.items()}
        loc = a_lift(loc)
        lo = max(0, int(loc.lo))
        hi = min(len(self.spec.leaves) - 1, int(loc.hi))
        # Bottom element: the empty interval (so joining the first real
        # guard keeps definite truth/falsity intact).
        taken: Dict[int, object] = {
            t.index: Interval.empty() for t in self.spec.transitions
        }
        evaluated_any = set()
        merged: Optional[Frame] = None

        def apply_actions(base: Frame, assignments) -> Frame:
            updated = dict(base)
            for assignment in assignments:
                updated[assignment.target] = interval_eval(
                    assignment.expr, updated
                )
            return updated

        for leaf in self.spec.leaves[lo : hi + 1]:
            # "No transition" outcome: during actions, location unchanged.
            leaf_frame = apply_actions(frame, leaf.during)
            leaf_frame["__loc"] = Interval.point(leaf.location)
            for transition in self.spec.candidates_for(leaf):
                guard = interval_eval(transition.guard, frame)
                evaluated_any.add(transition.index)
                taken[transition.index] = a_hull(
                    taken[transition.index], guard
                )
                if guard.definitely_false:
                    continue
                branch_frame = apply_actions(frame, transition.actions)
                for state in self.spec.entry_chain(transition.target):
                    branch_frame = apply_actions(branch_frame, state.entry)
                branch_frame["__loc"] = Interval.point(
                    self.spec.enter_target(transition.target).location
                )
                leaf_frame = {
                    key: a_hull(leaf_frame[key], branch_frame[key])
                    for key in leaf_frame
                }
            merged = leaf_frame if merged is None else {
                key: a_hull(merged[key], leaf_frame[key]) for key in merged
            }
        if merged is None:  # empty location interval: state unchanged
            merged = dict(frame)
            merged["__loc"] = loc
        for transition in self.spec.transitions:
            decision = self._decisions[transition.index]
            taken_itv = taken[transition.index]
            if transition.index not in evaluated_any:
                # Source state unreachable inside this envelope: both
                # outcomes are provably dead.
                taken_itv = BOOL_FALSE
                not_taken = BOOL_FALSE
            elif taken_itv.definitely_true:
                # Guard constantly true whenever evaluated: the not-taken
                # outcome can never be observed.
                not_taken = BOOL_FALSE
            else:
                not_taken = BOOL_UNKNOWN
            ctx.record_outcome_conditions(decision, [taken_itv, not_taken])
        return merged

    @staticmethod
    def _subst(expr: Expr, frame: Frame) -> Expr:
        bindings = {
            name: x.lift(value)
            for name, value in frame.items()
            if name != "__loc"
        }
        return substitute(expr, bindings)
