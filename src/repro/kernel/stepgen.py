"""The concrete kernel: one generated Python step per model.

:func:`generate_step` renders a compiled model's
:class:`~repro.model.graph.StepTemplate` as the source of one
straight-line Python function and ``compile()``s it once.  The function

1. reads every inport, coerced to its declared type, and every state
   element into a local,
2. computes, in dependency order, one local per template node with more
   than one parent edge (after merging structurally equal nodes); every
   other node is inlined into its parent's Python expression, so
   ``and``/``or``/``implies`` and the unselected arm of an ``Ite`` stay
   lazy, as under :func:`~repro.expr.evaluator.evaluate`,
3. takes each decision's outcome — the first outcome whose condition
   holds, but only while its registry parent branch is taken — and each
   condition point's vector, only while its owner block is active and
   its evaluation context holds,
4. fires those coverage probes in the interpreter's event order: plan
   order, and a chart's transitions in the active leaf's evaluation
   order.  An outcome or vector the collector already holds makes no
   collector call; a new one goes through ``on_branch`` /
   ``on_condition_vector`` as under the interpreter,
5. returns the outport values, the step's coverage events and the whole
   next state, all computed before step 4.

Nothing is written before step 4, so a step that raises has no effect
and :class:`~repro.model.simulator.Simulator` reruns it through the
reference interpreter, which raises the interpreter's own error (or,
where an eagerly computed shared node raised in a path the interpreter
never runs, completes the step).

The function applies no per-node coercion.  The evaluator coerces every
node's value to the node's type, but the interpreter coerces nothing
past its inports, so the two agree only where that coercion is the
identity.  A step is therefore generated only when every node's Python
value is already canonical for the node's type, given canonical leaves:
inports are coerced as ``Simulator`` coerces them, constants are
canonical, and the state stays canonical because the initial state is
and every next-state expression has its element's type.  Otherwise (an
``Ite`` over arms of two types, ``min`` of an int and a real, a real
stored into an int array, ...) :func:`generate_step` returns None and
the model runs through the interpreter.
"""

from __future__ import annotations

import math
import re
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import EvalError, ExprError, ModelError, SimulationError
from repro.expr import ast
from repro.expr.ast import Binary, Const, Expr, Ite, Select, Store, Unary, Var
from repro.expr.semantics import c_idiv, c_mod, real_div
from repro.expr.types import BOOL, INT, REAL, ArrayType, Type, coerce_value
from repro.model.graph import CompiledModel
from repro.stateflow.chart import ChartBlock

#: What a concrete step can raise; the simulator reruns such a step
#: through the interpreter.
STEP_ERRORS = (
    ArithmeticError,
    LookupError,
    TypeError,
    ValueError,
    ExprError,
    ModelError,
    SimulationError,
)

#: Inline expressions nest at most this deep before a node is hoisted
#: into a local (Python's parser allows 200 nested parentheses).
_MAX_INLINE_DEPTH = 40

_UNARY = {
    ast.NEG: "(-{})",
    ast.NOT: "(not {})",
    ast.ABS: "abs({})",
    ast.FLOOR: "_floor({})",
    ast.CEIL: "_ceil({})",
    ast.TO_INT: "int({})",
    ast.TO_REAL: "float({})",
    ast.TO_BOOL: "bool({})",
}

_BINARY = {
    ast.ADD: "({} + {})",
    ast.SUB: "({} - {})",
    ast.MUL: "({} * {})",
    ast.DIV: "_div(float({}), float({}))",
    ast.IDIV: "_idiv(int({}), int({}))",
    ast.MOD: "_mod(int({}), int({}))",
    ast.LT: "({} < {})",
    ast.LE: "({} <= {})",
    ast.GT: "({} > {})",
    ast.GE: "({} >= {})",
    ast.EQ: "({} == {})",
    ast.NE: "({} != {})",
}

#: The type each unary operator's Python value is canonical for; NEG and
#: ABS keep their operand's (a bool operand gives an int).
_UNARY_KIND = {
    ast.NOT: BOOL,
    ast.FLOOR: INT,
    ast.CEIL: INT,
    ast.TO_INT: INT,
    ast.TO_REAL: REAL,
    ast.TO_BOOL: BOOL,
}

_CONVERT = {BOOL: "bool({})", INT: "int({})", REAL: "float({})"}

_PYTHON = {BOOL: bool, INT: int, REAL: float}

#: A name or literal: safe to repeat in the source.
_ATOMIC = re.compile(r"[\w.+-]+")


def _select(array, index):
    index = int(index)
    if not 0 <= index < len(array):
        raise EvalError(f"array index {index} out of range 0..{len(array) - 1}")
    return array[index]


def _store(array, index, value):
    array = list(array)
    index = int(index)
    if not 0 <= index < len(array):
        raise EvalError(f"array index {index} out of range 0..{len(array) - 1}")
    array[index] = value
    return tuple(array)


def _missing():
    raise SimulationError("missing input")


class _NoStep(Exception):
    """No generated step reproduces the interpreter: the template's
    per-node coercion is not the identity somewhere (module docstring),
    or a coverage probe has no owning block."""


def _exact(value, ty: Type) -> bool:
    """Whether ``value`` is already the canonical form for ``ty``."""
    if isinstance(ty, ArrayType):
        return (
            type(value) is tuple
            and len(value) == ty.length
            and all(_exact(element, ty.elem) for element in value)
        )
    return type(value) is _PYTHON.get(ty)


class _Everything:
    """Stands in for the collector's seen sets when there is no
    collector: everything counts as seen, so no probe calls it.  Its
    items (the per-point vector sets) are itself."""

    __slots__ = ()

    def __contains__(self, item) -> bool:
        return True

    def __getitem__(self, point_id: int) -> "_Everything":
        return self


EVERYTHING = _Everything()


class _Emitter:
    """Renders template expressions into the lines of one function."""

    def __init__(self, roots: List[Expr], names: Dict[str, str]):
        #: node id -> the first node of equal structure (its representative)
        self._rep: Dict[int, Expr] = {}
        #: representative id -> (Python source, nesting depth)
        self._done: Dict[int, Tuple[str, int]] = {}
        self.lines: List[str] = []
        self.constants: Dict[str, object] = {}
        self._names = names
        self._temps = 0
        self._shared = self._intern(roots)

    def _intern(self, roots: List[Expr]) -> set:
        """Map every node to its representative; returns the ids of the
        representatives with more than one parent edge."""
        rep = self._rep
        table: Dict[tuple, Expr] = {}
        counts: Dict[int, int] = {}
        stack = [(root, False) for root in roots]
        while stack:
            node, expanded = stack.pop()
            if not expanded:
                if id(node) not in rep:
                    rep[id(node)] = node  # placeholder until expanded
                    stack.append((node, True))
                    stack.extend((child, False) for child in node.children)
                continue
            if isinstance(node, Const):
                key: tuple = ("const", repr(node.ty), repr(node.value))
            elif isinstance(node, Var):
                key = ("var", node.name)
            else:
                ids = tuple(id(rep[id(child)]) for child in node.children)
                key = (type(node), getattr(node, "op", None), repr(node.ty), ids)
            representative = table.setdefault(key, node)
            rep[id(node)] = representative
            if representative is node:
                for child in node.children:
                    child_id = id(rep[id(child)])
                    counts[child_id] = counts.get(child_id, 0) + 1
        for root in roots:
            root_id = id(rep[id(root)])
            counts[root_id] = counts.get(root_id, 0) + 1
        return {key for key, count in counts.items() if count > 1}

    def source(self, root: Expr) -> str:
        """The Python expression for ``root``; defines the locals it
        needs first."""
        rep = self._rep
        done = self._done
        stack = [(rep[id(root)], False)]
        while stack:
            node, expanded = stack.pop()
            if id(node) in done:
                continue
            if not expanded:
                stack.append((node, True))
                stack.extend(
                    (rep[id(child)], False) for child in reversed(node.children)
                )
                continue
            self._render(node)
        return done[id(rep[id(root)])][0]

    def boolean(self, root: Expr) -> str:
        text = self.source(root)
        return text if root.ty is BOOL else f"bool({text})"

    def _render(self, node: Expr) -> None:
        if isinstance(node, Const):
            self._done[id(node)] = (self._constant(node.value), 0)
            return
        if isinstance(node, Var):
            self._done[id(node)] = (self._names[node.name], 0)
            return
        children = [self._done[id(self._rep[id(child)])] for child in node.children]
        text, kind = self._expression(node, [text for text, _ in children])
        if kind != node.ty:
            raise _NoStep(f"{node.ty!r} node whose value is {kind!r}")
        depth = 1 + max(depth for _, depth in children)
        if id(node) in self._shared or depth > _MAX_INLINE_DEPTH:
            name = f"n{len(self.lines)}"
            self.lines.append(f"{name} = {text}")
            text, depth = name, 0
        self._done[id(node)] = (text, depth)

    def _expression(self, node: Expr, sources) -> Tuple[str, Optional[Type]]:
        """Source for ``node`` over its children's sources, and the type
        its Python value is canonical for (None: none)."""
        kinds = [child.ty for child in node.children]
        if isinstance(node, Unary):
            (kind,) = kinds
            text = _UNARY[node.op].format(*sources)
            if node.op in (ast.NEG, ast.ABS):
                return text, INT if kind is BOOL else kind
            return text, _UNARY_KIND[node.op]
        if isinstance(node, Binary):
            return self._binary(node.op, sources, kinds)
        if isinstance(node, Ite):
            cond, then, orelse = sources
            kind = kinds[1] if kinds[1] == kinds[2] else None
            return f"({then} if {cond} else {orelse})", kind
        if isinstance(node, Select):
            index = node.index
            length = node.array.ty.length
            if isinstance(index, Const) and 0 <= int(index.value) < length:
                return f"{sources[0]}[{int(index.value)}]", kinds[0].elem
            return f"_select({sources[0]}, {sources[1]})", kinds[0].elem
        if isinstance(node, Store):
            text = f"_store({sources[0]}, {sources[1]}, {sources[2]})"
            return text, kinds[0] if kinds[0].elem == kinds[2] else None
        raise ExprError(f"cannot generate code for {type(node).__name__}")

    def _binary(self, op: str, sources, kinds) -> Tuple[str, Optional[Type]]:
        left, right = sources
        both_bool = kinds[0] is BOOL and kinds[1] is BOOL
        if op == ast.AND:
            if both_bool:
                return f"({left} and {right})", BOOL
            return f"(bool({right}) if {left} else False)", BOOL
        if op == ast.OR:
            if both_bool:
                return f"({left} or {right})", BOOL
            return f"(True if {left} else bool({right}))", BOOL
        if op == ast.IMPLIES:
            if both_bool:
                return f"(not {left} or {right})", BOOL
            return f"(bool({right}) if {left} else True)", BOOL
        if op == ast.XOR:
            if both_bool:
                return f"({left} != {right})", BOOL
            return f"(bool({left}) != bool({right}))", BOOL
        if op in (ast.MIN, ast.MAX):
            kind = kinds[0] if kinds[0] == kinds[1] else None
            return self._pick(left, right, "<" if op == ast.MIN else ">"), kind
        text = _BINARY[op].format(left, right)
        if op in ast.REL_OPS:
            return text, BOOL
        if op == ast.DIV:
            return text, REAL
        if op in (ast.IDIV, ast.MOD):
            return text, INT
        return text, REAL if REAL in kinds else INT

    def _pick(self, left: str, right: str, relation: str) -> str:
        """``min``/``max`` without the call: ``right`` if ``right
        <relation> left`` else ``left``, as the builtins choose.  An
        operand that is not a name or literal is bound to a temporary,
        so it is evaluated once."""
        operands = []
        for text in (right, left):
            if _ATOMIC.fullmatch(text):
                operands.append((text, text))
            else:
                name = f"t{self._temps}"
                self._temps += 1
                operands.append((name, f"({name} := {text})"))
        (b, b_first), (a, a_first) = operands
        return f"({b} if {b_first} {relation} {a_first} else {a})"

    def convert(self, text: str, ty: Type) -> str:
        """``text`` coerced to ``ty``."""
        template = _CONVERT.get(ty)
        if template is not None:
            return template.format(text)
        return f"_coerce({text}, {self._constant(ty)})"

    def _constant(self, value) -> str:
        literal = type(value) in (bool, int)
        if literal or (type(value) is float and math.isfinite(value)):
            return repr(value)
        name = f"K{len(self.constants)}"
        self.constants[name] = value
        return name


def _probes(compiled: CompiledModel):
    """Per plan item: ``(loc_path, order)`` — ``order`` lists, per leaf
    location of a chart (``loc_path`` its location's state path), the
    ``(point, decision)`` of each transition in evaluation order; any
    other block has ``loc_path`` None and one such list holding one pair
    (either side None when it owns no such probe).  Raises ``_NoStep``
    unless every registered decision and condition point is owned."""
    probes = []
    for item in compiled.plan:
        block = item.block
        if isinstance(block, ChartBlock):
            probes.append((f"{block.path}.loc", block.evaluation_order()))
            continue
        pair = (
            getattr(block, "condition_point", None),
            getattr(block, "decision", None),
        )
        probes.append((None, [[pair]]))
    owned = {
        id(probe)
        for _, order in probes
        for leaf in order
        for pair in leaf
        for probe in pair
        if probe is not None
    }
    registry = compiled.registry
    if len(owned) != len(registry.decisions) + len(registry.condition_points):
        raise _NoStep(f"model {compiled.name!r} has probes no block owns")
    return probes


def _gate(item) -> str:
    """Source for the activation of ``item``: its enabling outcome is
    taken (the registry parent of every decision the item owns)."""
    if item.enable is None:
        return ""
    decision = item.enable.block.decision
    return f"o{decision.decision_id} == {item.enable.outcome}"


def _render_step(compiled: CompiledModel) -> Tuple[str, Dict[str, object]]:
    """The step function's source and the globals it needs."""
    template = compiled.step_template()
    probes = _probes(compiled)
    for path, element in compiled.state_elements.items():
        if not _exact(element.init, element.ty):
            raise _NoStep(f"initial value of {path!r} is not canonical")
        if template.next_state[path].ty != element.ty:
            raise _NoStep(f"next value of {path!r} is not its element type")
    roots: List[Expr] = list(template.outputs.values())
    roots += template.next_state.values()
    for conditions in template.outcome_conditions.values():
        roots += conditions
    for atoms, context in template.condition_atoms.values():
        roots += atoms
        roots.append(context)
    names: Dict[str, str] = {}
    emitter = _Emitter(roots, names)
    lines = emitter.lines
    prologue: List[str] = []
    for index, spec in enumerate(compiled.inports):
        names[spec.name] = f"i{index}"
        value = emitter.convert(f"inputs[{spec.name!r}]", spec.ty)
        prologue.append(
            f"i{index} = {value} if {spec.name!r} in inputs else _missing()"
        )
    for index, path in enumerate(compiled.state_elements):
        names[path] = f"s{index}"
        prologue.append(f"s{index} = state[{path!r}]")
    fires: List[str] = []

    def compute(point, decision, gate: str) -> None:
        """Lines computing the point's vector and the decision's outcome
        (None when not emitted / not taken)."""
        if point is not None:
            atoms, context = template.condition_atoms[point.point_id]
            vector = "".join(f"{emitter.boolean(atom)}, " for atom in atoms)
            test = emitter.source(context)
            if gate:
                test = f"{gate} and {test}"
            if test != "True":
                vector = f"({vector}) if {test} else None"
            lines.append(f"v{point.point_id} = ({vector})")
        if decision is not None:
            conditions = template.outcome_conditions[decision.decision_id]
            chain = "None"
            for outcome in reversed(range(len(conditions))):
                test = emitter.source(conditions[outcome])
                chain = f"{outcome} if {test} else {chain}"
            if gate:
                chain = f"({chain}) if {gate} else None"
            lines.append(f"o{decision.decision_id} = {chain}")

    def fire(point, decision, indent: str) -> List[str]:
        """Lines reporting the vector and the outcome, if new."""
        report = []
        if point is not None:
            v, p = f"v{point.point_id}", point.point_id
            report += [
                f"{indent}if {v} is not None and {v} not in seen[{p}]:",
                f"{indent}    new_obligations.extend(",
                f"{indent}        collector.on_condition_vector(PT[{p}], {v}))",
            ]
        if decision is not None:
            o, d = f"o{decision.decision_id}", decision.decision_id
            report += [
                f"{indent}if {o} is not None:",
                f"{indent}    taken[{d}] = {o}",
                f"{indent}    b = {decision.branches[0].branch_id} + {o}",
                f"{indent}    if b not in covered and collector.on_branch(BR[b]):",
                f"{indent}        new_branches.append(b)",
            ]
        return report

    for item, (loc_path, order) in zip(compiled.plan, probes):
        gate = _gate(item)
        # A composite state's transition is a candidate under each leaf.
        pairs = {id(pair[1]): pair for leaf in order for pair in leaf}
        for point, decision in pairs.values():
            compute(point, decision, gate)
        if loc_path is None:
            for point, decision in order[0]:
                fires += fire(point, decision, "")
            continue
        for location, leaf in enumerate(order):
            keyword = "elif" if location else "if"
            fires.append(f"{keyword} {names[loc_path]} == {location}:")
            for point, decision in leaf:
                fires += fire(point, decision, "    ")
            if not leaf:
                fires.append("    pass")

    outputs = [
        f"{name!r}: {emitter.source(expr)}" for name, expr in template.outputs.items()
    ]
    state = [
        f"{path!r}: {emitter.source(template.next_state[path])}"
        for path in compiled.state_elements
    ]
    body = prologue + lines
    body.append("outputs = {" + ", ".join(outputs) + "}")
    body.append("next_state = {" + ", ".join(state) + "}")
    body.append("taken, new_branches, new_obligations = {}, [], []")
    body += fires
    body.append("return outputs, new_branches, taken, new_obligations, next_state")
    header = "def step(inputs, state, collector, covered, seen):\n"
    source = header + "".join(f"    {line}\n" for line in body)
    namespace: Dict[str, object] = {
        "_floor": math.floor,
        "_ceil": math.ceil,
        "_div": real_div,
        "_idiv": c_idiv,
        "_mod": c_mod,
        "_select": _select,
        "_store": _store,
        "_coerce": coerce_value,
        "_missing": _missing,
        "BR": compiled.registry.branches,
        "PT": compiled.registry.condition_points,
    }
    namespace.update(emitter.constants)
    return source, namespace


def generate_step(compiled: CompiledModel) -> Optional[Callable]:
    """Compile ``compiled``'s step function (see the module docstring):
    ``step(inputs, state, collector, covered, seen)`` returns ``(outputs,
    new_branch_ids, taken_outcomes, new_obligations, next_state)``, where
    ``covered`` and ``seen`` are the collector's
    :meth:`~repro.coverage.collector.CoverageCollector.seen_sets`.

    Returns None when the template's coercions would change a value or
    a coverage probe has no owning block."""
    try:
        source, namespace = _render_step(compiled)
    except _NoStep:
        return None
    code = compile(source, f"<step {compiled.name}>", "exec")
    exec(code, namespace)
    return namespace["step"]
