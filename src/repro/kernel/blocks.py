"""Per-block specialized kernels for the concrete fast path.

Each factory takes one plan item plus its pre-resolved input slots and
returns a closure ``step(ctx)`` that reproduces, bit for bit, what the
generic interpreter (``Block.compute`` + ``Block.update`` driven by
:func:`repro.model.executor.execute_step`) would do in **concrete** mode:

* the same output values written into the item's reusable output buffer,
* the same coverage events, in the same order, through the same
  ``ctx.on_decision`` / ``ctx.on_condition_vector`` entry points (so the
  activation gating and collector bookkeeping stay shared code),
* the same activation-gated ``ctx.next_state`` writes,
* the same errors for the same malformed situations.

A factory may refuse to specialize by returning ``None`` (e.g. a ``Switch``
whose coverage was never registered, a state path missing from the compiled
layout, a ``TypeCast`` to a non-scalar type) — the plan compiler then falls
back to the generic interpreter for that item, which keeps equivalence
trivially.  ``PRELOADED`` signals that the block's output was computed at
build time (constants) and no per-step closure is needed at all.

Dispatch is by *exact* block class: subclasses may override ``compute`` /
``update``, so they take the generic path unless registered explicitly
(``Memory`` is — it inherits ``UnitDelay``'s semantics unchanged).
Symbolic and abstract execution never touch this module.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import SimulationError
from repro.expr.semantics import c_mod, real_div
from repro.expr.types import BOOL, INT, REAL
from repro.kernel.exprc import compile_expr
from repro.model.blocks.datastore import DataStoreRead, DataStoreWrite
from repro.model.blocks.discrete import (
    DiscreteIntegrator,
    Memory,
    RateLimiter,
    UnitDelay,
)
from repro.model.blocks.logic import CompareToConstant, Logic, RelationalOperator
from repro.model.blocks.lookup import Lookup1D
from repro.model.blocks.math_ops import (
    Abs,
    Bias,
    Fcn,
    Gain,
    MinMax,
    Product,
    Quantizer,
    Saturation,
    Sum,
    TypeCast,
)
from repro.model.blocks.routing import (
    ArrayUpdate,
    IfBlock,
    MultiportSwitch,
    Mux,
    Selector,
    SubsystemOutput,
    Switch,
    SwitchCase,
)
from repro.model.blocks.sources import Constant, Counter, Inport
from repro.model.graph import CompiledModel
from repro.stateflow.chart import ChartBlock

#: ``(source_output_buffer, port)`` — resolved once, read every step.
Slot = Tuple[List[object], int]
#: ``active(ctx) -> bool`` or ``None`` for always-active items.
ActiveFn = Optional[Callable[..., bool]]
StepFn = Callable[..., None]

#: Sentinel: the factory filled the output buffer at build time; the item
#: needs no per-step work at all.
PRELOADED = object()


def _state_path(block, key: str, compiled: CompiledModel) -> Optional[str]:
    """Precomputed state path, or ``None`` if the layout doesn't know it."""
    path = f"{block.path}.{key}"
    return path if path in compiled.state_elements else None


# -- pure dataflow ----------------------------------------------------------


def _k_gain(item, block: Gain, srcs, out, active, compiled):
    (lst, port), = srcs
    gain = block.gain

    def step(ctx):
        out[0] = gain * lst[port]

    return step


def _k_bias(item, block: Bias, srcs, out, active, compiled):
    (lst, port), = srcs
    bias = block.bias

    def step(ctx):
        out[0] = lst[port] + bias

    return step


def _k_sum(item, block: Sum, srcs, out, active, compiled):
    signs = block.signs
    if signs == "++":
        (a_lst, a_port), (b_lst, b_port) = srcs

        def step(ctx):
            out[0] = a_lst[a_port] + b_lst[b_port]

        return step
    if signs == "+-":
        (a_lst, a_port), (b_lst, b_port) = srcs

        def step(ctx):
            out[0] = a_lst[a_port] - b_lst[b_port]

        return step
    first_negated = signs[0] == "-"
    rest = tuple(zip(signs[1:], srcs[1:]))
    (f_lst, f_port) = srcs[0]

    def step(ctx):
        total = -f_lst[f_port] if first_negated else f_lst[f_port]
        for sign, (lst, port) in rest:
            if sign == "+":
                total = total + lst[port]
            else:
                total = total - lst[port]
        out[0] = total

    return step


def _k_product(item, block: Product, srcs, out, active, compiled):
    ops = block.ops
    (f_lst, f_port) = srcs[0]
    if ops == "**":
        (b_lst, b_port) = srcs[1]

        def step(ctx):
            out[0] = f_lst[f_port] * b_lst[b_port]

        return step
    rest = tuple(zip(ops[1:], srcs[1:]))

    def step(ctx):
        total = f_lst[f_port]
        for op, (lst, port) in rest:
            if op == "*":
                total = total * lst[port]
            else:
                total = real_div(float(total), float(lst[port]))
        out[0] = total

    return step


def _k_abs(item, block: Abs, srcs, out, active, compiled):
    (lst, port), = srcs

    def step(ctx):
        out[0] = abs(lst[port])

    return step


def _k_minmax(item, block: MinMax, srcs, out, active, compiled):
    combine = min if block.mode == "min" else max
    rest = srcs[1:]
    (f_lst, f_port) = srcs[0]

    def step(ctx):
        total = f_lst[f_port]
        for lst, port in rest:
            total = combine(total, lst[port])
        out[0] = total

    return step


def _k_saturation(item, block: Saturation, srcs, out, active, compiled):
    (lst, port), = srcs
    lo = block.lo
    hi = block.hi

    def step(ctx):
        out[0] = min(max(lst[port], lo), hi)

    return step


def _k_typecast(item, block: TypeCast, srcs, out, active, compiled):
    if block.target is BOOL:
        conv = bool
    elif block.target is INT:
        conv = int
    elif block.target is REAL:
        conv = float
    else:
        return None  # interpreter raises ModelError per step; keep that
    (lst, port), = srcs

    def step(ctx):
        out[0] = conv(lst[port])

    return step


def _k_quantizer(item, block: Quantizer, srcs, out, active, compiled):
    (lst, port), = srcs
    interval = block.interval
    floor = math.floor

    def step(ctx):
        out[0] = floor(float(lst[port]) / interval + 0.5) * interval

    return step


def _k_fcn(item, block: Fcn, srcs, out, active, compiled):
    fn = compile_expr(block.template)
    bindings = tuple(zip(block.args, srcs))

    def step(ctx):
        out[0] = fn({name: lst[port] for name, (lst, port) in bindings})

    return step


def _k_lookup(item, block: Lookup1D, srcs, out, active, compiled):
    (lst, port), = srcs
    interp = block._interp_concrete

    def step(ctx):
        out[0] = interp(float(lst[port]))

    return step


def _k_relop(item, block: RelationalOperator, srcs, out, active, compiled):
    (a_lst, a_port), (b_lst, b_port) = srcs
    test = _REL_TESTS[block.op]

    def step(ctx):
        out[0] = test(a_lst[a_port], b_lst[b_port])

    return step


def _k_cmpconst(item, block: CompareToConstant, srcs, out, active, compiled):
    (lst, port), = srcs
    constant = block.constant
    test = _REL_TESTS[block.op]

    def step(ctx):
        out[0] = test(lst[port], constant)

    return step


_REL_TESTS = {
    "lt": lambda a, b: a < b,
    "le": lambda a, b: a <= b,
    "gt": lambda a, b: a > b,
    "ge": lambda a, b: a >= b,
    "eq": lambda a, b: a == b,
    "ne": lambda a, b: a != b,
}


def _k_selector(item, block: Selector, srcs, out, active, compiled):
    (a_lst, a_port), (i_lst, i_port) = srcs
    top = block.length - 1

    def step(ctx):
        index = min(max(int(i_lst[i_port]), 0), top)
        out[0] = a_lst[a_port][index]

    return step


def _k_array_update(item, block: ArrayUpdate, srcs, out, active, compiled):
    (a_lst, a_port), (i_lst, i_port), (v_lst, v_port) = srcs
    top = block.length - 1

    def step(ctx):
        index = min(max(int(i_lst[i_port]), 0), top)
        items = list(a_lst[a_port])
        items[index] = v_lst[v_port]
        out[0] = tuple(items)

    return step


def _k_mux(item, block: Mux, srcs, out, active, compiled):
    def step(ctx):
        out[0] = tuple(lst[port] for lst, port in srcs)

    return step


# -- sources ----------------------------------------------------------------


def _k_inport(item, block: Inport, srcs, out, active, compiled):
    name = block.port_name

    def step(ctx):
        try:
            out[0] = ctx.inputs[name]
        except KeyError:
            raise SimulationError(f"missing input {name!r}") from None

    return step


def _k_constant(item, block: Constant, srcs, out, active, compiled):
    out[0] = block.value
    return PRELOADED


def _k_counter(item, block: Counter, srcs, out, active, compiled):
    path = _state_path(block, "count", compiled)
    if path is None:
        return None
    step_by = block.step
    period = block.period
    always = active is None

    def step(ctx):
        act = True if always else active(ctx)
        count = ctx.state_env[path]
        out[0] = count
        if act:
            ctx.next_state[path] = c_mod(int(count + step_by), period)

    return step


# -- internal-state blocks --------------------------------------------------


def _k_unit_delay(item, block: UnitDelay, srcs, out, active, compiled):
    path = _state_path(block, "x", compiled)
    if path is None:
        return None
    (lst, port), = srcs
    always = active is None

    def step(ctx):
        act = True if always else active(ctx)
        out[0] = ctx.state_env[path]
        if act:
            ctx.next_state[path] = lst[port]

    return step


def _k_integrator(item, block: DiscreteIntegrator, srcs, out, active, compiled):
    path = _state_path(block, "acc", compiled)
    if path is None:
        return None
    (lst, port), = srcs
    gain = block.gain
    lo = block.lo
    hi = block.hi
    always = active is None

    def step(ctx):
        act = True if always else active(ctx)
        acc = ctx.state_env[path]
        out[0] = acc
        if act:
            advanced = acc + gain * float(lst[port])
            ctx.next_state[path] = min(max(advanced, lo), hi)

    return step


def _k_rate_limiter(item, block: RateLimiter, srcs, out, active, compiled):
    path = _state_path(block, "prev", compiled)
    if path is None:
        return None
    (lst, port), = srcs
    up = block.up
    neg_down = -block.down
    always = active is None

    def step(ctx):
        act = True if always else active(ctx)
        prev = ctx.state_env[path]
        limited = min(max(float(lst[port]) - prev, neg_down), up)
        value = prev + limited
        out[0] = value
        if act:
            ctx.next_state[path] = value

    return step


def _k_sub_output(item, block: SubsystemOutput, srcs, out, active, compiled):
    path = _state_path(block, "held", compiled)
    if path is None:
        return None
    (lst, port), = srcs
    always = active is None

    def step(ctx):
        act = True if always else active(ctx)
        if act:
            value = lst[port]
            out[0] = value
            ctx.next_state[path] = value
        else:
            out[0] = ctx.state_env[path]

    return step


def _k_store_read(item, block: DataStoreRead, srcs, out, active, compiled):
    path = f"$store.{block.store}"
    if path not in compiled.state_elements:
        return None
    if block.read_current:

        def step(ctx):
            next_state = ctx.next_state
            if path in next_state:
                out[0] = next_state[path]
            else:
                out[0] = ctx.state_env[path]

        return step

    def step(ctx):
        out[0] = ctx.state_env[path]

    return step


def _k_store_write(item, block: DataStoreWrite, srcs, out, active, compiled):
    path = f"$store.{block.store}"
    if path not in compiled.state_elements:
        return None
    (lst, port), = srcs
    always = active is None

    def step(ctx):
        if True if always else active(ctx):
            ctx.next_state[path] = lst[port]

    return step


# -- decision / event blocks ------------------------------------------------
#
# These fire coverage events, so they must publish their activation on the
# context before calling ``on_decision`` / ``on_condition_vector`` — the
# gating inside those entry points is the single shared implementation of
# conditional-execution semantics.


def _k_switch(item, block: Switch, srcs, out, active, compiled):
    decision = block.decision
    if decision is None:
        return None
    (t_lst, t_port), (c_lst, c_port), (f_lst, f_port) = srcs
    criterion = block.criterion
    threshold = block.threshold
    if criterion == "gt":
        def test(value):
            return value > threshold
    elif criterion == "ge":
        def test(value):
            return value >= threshold
    elif criterion == "ne0":
        def test(value):
            return value != 0
    else:
        test = bool
    always = active is None

    def step(ctx):
        ctx.active = True if always else active(ctx)
        condition = test(c_lst[c_port])
        ctx.on_decision(decision, 0 if condition else 1)
        out[0] = t_lst[t_port] if condition else f_lst[f_port]

    return step


def _k_multiport(item, block: MultiportSwitch, srcs, out, active, compiled):
    decision = block.decision
    if decision is None:
        return None
    (c_lst, c_port) = srcs[0]
    data = srcs[1:]
    labels = block.labels
    n_labels = len(labels)
    has_default = block.has_default
    (d_lst, d_port) = data[-1]
    always = active is None

    def step(ctx):
        ctx.active = True if always else active(ctx)
        control = int(c_lst[c_port])
        for index, label in enumerate(labels):
            if control == label:
                ctx.on_decision(decision, index)
                lst, port = data[index]
                out[0] = lst[port]
                return
        if has_default:
            ctx.on_decision(decision, n_labels)
        out[0] = d_lst[d_port]

    return step


def _k_if(item, block: IfBlock, srcs, out, active, compiled):
    decision = block.decision
    if decision is None:
        return None
    has_else = block.has_else
    n_clauses = block.n_clauses
    always = active is None

    def step(ctx):
        ctx.active = True if always else active(ctx)
        for index, (lst, port) in enumerate(srcs):
            if lst[port]:
                ctx.on_decision(decision, index)
                return
        if has_else:
            ctx.on_decision(decision, n_clauses)

    return step


def _k_switch_case(item, block: SwitchCase, srcs, out, active, compiled):
    decision = block.decision
    if decision is None:
        return None
    (c_lst, c_port), = srcs
    cases = block.cases
    n_cases = len(cases)
    has_default = block.has_default
    always = active is None

    def step(ctx):
        ctx.active = True if always else active(ctx)
        value = int(c_lst[c_port])
        for index, group in enumerate(cases):
            if value in group:
                ctx.on_decision(decision, index)
                return
        if has_default:
            ctx.on_decision(decision, n_cases)

    return step


def _k_logic(item, block: Logic, srcs, out, active, compiled):
    point = block.condition_point
    if point is None:
        return None
    op = block.op
    if op == "not":
        def combine(operands):
            return not operands[0]
    elif op == "and":
        combine = all
    elif op == "nand":
        def combine(operands):
            return not all(operands)
    elif op == "or":
        combine = any
    elif op == "nor":
        def combine(operands):
            return not any(operands)
    else:  # xor

        def combine(operands):
            result = operands[0]
            for operand in operands[1:]:
                result = result != operand
            return result

    always = active is None

    def step(ctx):
        ctx.active = True if always else active(ctx)
        operands = [bool(lst[port]) for lst, port in srcs]
        ctx.on_condition_vector(point, operands)
        out[0] = combine(operands)

    return step


# -- charts -----------------------------------------------------------------


def _k_chart(item, block: ChartBlock, srcs, out, active, compiled):
    spec = block.spec
    prefix = block.path
    loc_path = f"{prefix}.loc"
    rw_paths = tuple(
        (name, f"{prefix}.{name}")
        for name in spec.local_names + spec.output_names
    )
    state_elements = compiled.state_elements
    if loc_path not in state_elements or any(
        path not in state_elements for _, path in rw_paths
    ):
        return None
    in_bindings = tuple(zip(spec.input_names, srcs))
    out_names = tuple(spec.output_names)

    # Per leaf location: the candidate transition programs in priority
    # order, each fully compiled — (decision, condition point, atom
    # closures, guard closure, action writes, entry-chain writes, target
    # location) — plus the leaf's during-action writes.
    programs = []
    for leaf in spec.leaves:
        candidates = []
        for transition in spec.candidates_for(leaf):
            decision = block._decisions.get(transition.index)
            if decision is None:
                return None
            instrumented = block._points.get(transition.index)
            if instrumented is None:
                point: object = None
                atom_fns: tuple = ()
            else:
                point, atoms = instrumented
                atom_fns = tuple(compile_expr(atom) for atom in atoms)
            candidates.append((
                decision,
                point,
                atom_fns,
                compile_expr(transition.guard),
                tuple(
                    (assign.target, compile_expr(assign.expr))
                    for assign in transition.actions
                ),
                tuple(
                    (assign.target, compile_expr(assign.expr))
                    for state in spec.entry_chain(transition.target)
                    for assign in state.entry
                ),
                spec.enter_target(transition.target).location,
            ))
        during = tuple(
            (assign.target, compile_expr(assign.expr)) for assign in leaf.during
        )
        programs.append((tuple(candidates), during))
    always = active is None

    def step(ctx):
        ctx.active = act = True if always else active(ctx)
        env = ctx.state_env
        frame = {name: lst[port] for name, (lst, port) in in_bindings}
        for name, path in rw_paths:
            frame[name] = env[path]
        loc = int(env[loc_path])
        candidates, during = programs[loc]
        fired = None
        for candidate in candidates:
            point = candidate[1]
            if point is not None:
                vector = tuple(bool(fn(frame)) for fn in candidate[2])
                ctx.on_condition_vector(point, vector)
            taken = bool(candidate[3](frame))
            ctx.on_decision(candidate[0], 0 if taken else 1)
            if taken:
                fired = candidate
                break
        if fired is not None:
            for target, fn in fired[4]:
                frame[target] = fn(frame)
            for target, fn in fired[5]:
                frame[target] = fn(frame)
            new_loc = fired[6]
        else:
            for target, fn in during:
                frame[target] = fn(frame)
            new_loc = loc
        for index, name in enumerate(out_names):
            out[index] = frame[name]
        if act:
            next_state = ctx.next_state
            next_state[loc_path] = new_loc
            for name, path in rw_paths:
                next_state[path] = frame[name]

    return step


#: Exact-class dispatch table.  ``MovingAccumulator`` (tuple-state FIFO) is
#: deliberately absent so every full-model equivalence run also exercises
#: the generic fallback path.
KERNEL_FACTORIES: Dict[type, Callable] = {
    Gain: _k_gain,
    Bias: _k_bias,
    Sum: _k_sum,
    Product: _k_product,
    Abs: _k_abs,
    MinMax: _k_minmax,
    Saturation: _k_saturation,
    TypeCast: _k_typecast,
    Quantizer: _k_quantizer,
    Fcn: _k_fcn,
    Lookup1D: _k_lookup,
    RelationalOperator: _k_relop,
    CompareToConstant: _k_cmpconst,
    Selector: _k_selector,
    ArrayUpdate: _k_array_update,
    Mux: _k_mux,
    Inport: _k_inport,
    Constant: _k_constant,
    Counter: _k_counter,
    UnitDelay: _k_unit_delay,
    Memory: _k_unit_delay,
    DiscreteIntegrator: _k_integrator,
    RateLimiter: _k_rate_limiter,
    SubsystemOutput: _k_sub_output,
    DataStoreRead: _k_store_read,
    DataStoreWrite: _k_store_write,
    Switch: _k_switch,
    MultiportSwitch: _k_multiport,
    IfBlock: _k_if,
    SwitchCase: _k_switch_case,
    Logic: _k_logic,
    ChartBlock: _k_chart,
}
