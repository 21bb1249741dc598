"""Model container, wiring, and compilation to an execution plan.

A :class:`Model` is a flat collection of blocks plus wiring, data-store
declarations and conditional-execution (enable) annotations.  ``compile()``
produces a :class:`CompiledModel`:

* a topologically sorted execution plan (networkx, deterministic
  tie-breaking by insertion order),
* the coverage registry with every decision/branch/condition point
  (branch parents follow the enable nesting, giving Definition 1's
  parent/depth),
* the flattened state-element table (Definition 2's G/GV + M/ML + I/IV),
* on demand, the *step template* (:meth:`CompiledModel.step_template`):
  one symbolic step with inports and state elements alike as variables,
  which the one-step encoder specializes to each concrete state and the
  SLDV-like unroller composes with itself.

Ordering rules:

* a wire adds an edge source → destination unless the destination port has
  no direct feedthrough (``UnitDelay`` & friends),
* an enable annotation adds an edge decision-block → enabled block,
* data-store readers execute before writers of the same store by default
  (read-before-write); a reader built with ``read_current=True`` reverses
  that and observes the value written earlier in the same step,
* ``add_ordering`` inserts explicit edges for anything else.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import networkx as nx

from repro.errors import CompileError, ExprError, ModelError, SimulationError
from repro.coverage.registry import Branch, CoverageRegistry
from repro.expr.ast import Expr, Var
from repro.expr.ops import lift
from repro.expr.types import Type
from repro.model.block import (
    Block,
    STATE_GLOBAL,
    StateElement,
)


@dataclass(frozen=True)
class Signal:
    """A block output port reference."""

    block: Block
    port: int = 0

    def __repr__(self) -> str:
        return f"Signal({self.block.path}:{self.port})"


@dataclass(frozen=True)
class InportSpec:
    """Declaration of a model input: name, type and value bounds."""

    name: str
    ty: Type
    lo: Optional[float] = None
    hi: Optional[float] = None

    def as_var(self, suffix: str = "") -> Var:
        """The symbolic variable standing for this input (optionally per-step)."""
        return Var(self.name + suffix, self.ty, self.lo, self.hi)


@dataclass(frozen=True)
class DataStore:
    """A model-global variable (the paper's G/GV state)."""

    name: str
    ty: Type
    init: object


@dataclass
class Enable:
    """Conditional-execution annotation: active iff ``decision`` takes ``outcome``."""

    block: Block  # the If / SwitchCase block owning the decision
    outcome: int


@dataclass
class PlanItem:
    """One executable entry of the compiled plan."""

    block: Block
    index: int
    input_signals: Tuple[Signal, ...]
    enable: Optional[Enable] = None
    #: Plan index of the enabling block (set during compile).
    enable_index: Optional[int] = None


class Model:
    """A flat block-diagram model under construction."""

    def __init__(self, name: str):
        self.name = name
        self._blocks: List[Block] = []
        self._block_ids: Dict[int, int] = {}  # id(block) -> insertion index
        self._wires: Dict[Tuple[int, int], Signal] = {}  # (blk idx, port) -> src
        self._enables: Dict[int, Enable] = {}
        self._stores: Dict[str, DataStore] = {}
        self._store_readers: List[Tuple[int, str, bool]] = []  # (idx, store, current)
        self._store_writers: List[Tuple[int, str]] = []
        self._orderings: List[Tuple[int, int]] = []
        self._inports: List[InportSpec] = []
        self._outports: List[Tuple[str, Signal]] = []
        self._names: set = set()

    # -- construction ---------------------------------------------------------

    def add_block(self, block: Block, enable: Optional[Enable] = None) -> Block:
        if id(block) in self._block_ids:
            raise ModelError(f"block {block.path!r} added twice")
        if block.path in self._names:
            raise ModelError(f"duplicate block path {block.path!r}")
        self._names.add(block.path)
        index = len(self._blocks)
        self._blocks.append(block)
        self._block_ids[id(block)] = index
        if enable is not None:
            self._require_known(enable.block, "enable source")
            self._enables[index] = enable
        return block

    def connect(self, signal: Signal, dst: Block, port: int) -> None:
        self._require_known(dst, "destination")
        self._require_known(signal.block, "source")
        if not 0 <= port < dst.n_in:
            raise ModelError(f"{dst.path!r} has no input port {port}")
        if not 0 <= signal.port < signal.block.n_out:
            raise ModelError(
                f"{signal.block.path!r} has no output port {signal.port}"
            )
        key = (self._block_ids[id(dst)], port)
        if key in self._wires:
            raise ModelError(f"input {dst.path!r}:{port} wired twice")
        self._wires[key] = signal

    def declare_store(self, name: str, ty: Type, init) -> DataStore:
        if name in self._stores:
            raise ModelError(f"data store {name!r} declared twice")
        store = DataStore(name, ty, init)
        self._stores[name] = store
        return store

    def note_store_read(self, block: Block, store: str, current: bool) -> None:
        """Register a reader for ordering (called by DataStoreRead blocks)."""
        self._require_store(store)
        self._store_readers.append((self._block_ids[id(block)], store, current))

    def note_store_write(self, block: Block, store: str) -> None:
        self._require_store(store)
        self._store_writers.append((self._block_ids[id(block)], store))

    def add_ordering(self, before: Block, after: Block) -> None:
        """Force ``before`` to execute earlier than ``after``."""
        self._orderings.append(
            (self._block_ids[id(before)], self._block_ids[id(after)])
        )

    def add_inport(self, spec: InportSpec) -> None:
        if any(existing.name == spec.name for existing in self._inports):
            raise ModelError(f"duplicate inport {spec.name!r}")
        self._inports.append(spec)

    def add_outport(self, name: str, signal: Signal) -> None:
        if any(existing == name for existing, _ in self._outports):
            raise ModelError(f"duplicate outport {name!r}")
        self._require_known(signal.block, "outport source")
        self._outports.append((name, signal))

    # -- helpers -----------------------------------------------------------------

    def _require_known(self, block: Block, role: str) -> None:
        if id(block) not in self._block_ids:
            raise ModelError(f"{role} block {block.path!r} not in model")

    def _require_store(self, name: str) -> None:
        if name not in self._stores:
            raise ModelError(f"unknown data store {name!r}")

    @property
    def blocks(self) -> Tuple[Block, ...]:
        return tuple(self._blocks)

    @property
    def inports(self) -> Tuple[InportSpec, ...]:
        return tuple(self._inports)

    # -- compilation ----------------------------------------------------------------

    def compile(self) -> "CompiledModel":
        self._check_wiring()
        order = self._topological_order()
        plan = self._build_plan(order)
        registry = self._register_coverage(order)
        state = self._state_table()
        return CompiledModel(
            name=self.name,
            plan=plan,
            registry=registry,
            state_elements=state,
            inports=tuple(self._inports),
            outports=tuple(self._outports),
            n_blocks=len(self._blocks),
        )

    def _check_wiring(self) -> None:
        missing = []
        for index, block in enumerate(self._blocks):
            for port in range(block.n_in):
                if (index, port) not in self._wires:
                    missing.append(f"{block.path}:{port}")
        if missing:
            raise CompileError(f"unwired inputs: {', '.join(missing)}")

    def _topological_order(self) -> List[int]:
        graph = nx.DiGraph()
        graph.add_nodes_from(range(len(self._blocks)))
        for (dst_index, port), signal in self._wires.items():
            dst_block = self._blocks[dst_index]
            nondirect = dst_block.nondirect_ports or ()
            if port in nondirect:
                continue
            src_index = self._block_ids[id(signal.block)]
            graph.add_edge(src_index, dst_index)
        for index, enable in self._enables.items():
            graph.add_edge(self._block_ids[id(enable.block)], index)
        for reader_index, store, current in self._store_readers:
            for writer_index, wstore in self._store_writers:
                if wstore != store or writer_index == reader_index:
                    continue
                if current:
                    graph.add_edge(writer_index, reader_index)
                else:
                    graph.add_edge(reader_index, writer_index)
        for before, after in self._orderings:
            graph.add_edge(before, after)
        try:
            return list(nx.lexicographical_topological_sort(graph))
        except nx.NetworkXUnfeasible:
            cycle = nx.find_cycle(graph)
            names = " -> ".join(self._blocks[a].path for a, _ in cycle)
            raise CompileError(
                f"model {self.name!r} has an algebraic loop: {names}. "
                "Break it with a UnitDelay or adjust data-store ordering."
            ) from None

    def _build_plan(self, order: List[int]) -> Tuple[PlanItem, ...]:
        plan: List[PlanItem] = []
        position: Dict[int, int] = {}
        for plan_index, block_index in enumerate(order):
            block = self._blocks[block_index]
            inputs = tuple(
                self._wires[(block_index, port)] for port in range(block.n_in)
            )
            enable = self._enables.get(block_index)
            item = PlanItem(block, plan_index, inputs, enable)
            if enable is not None:
                item.enable_index = position[self._block_ids[id(enable.block)]]
            plan.append(item)
            position[block_index] = plan_index
        return tuple(plan)

    def _register_coverage(self, order: List[int]) -> CoverageRegistry:
        registry = CoverageRegistry()
        for block_index in order:
            block = self._blocks[block_index]
            enable = self._enables.get(block_index)
            parent: Optional[Branch] = None
            if enable is not None:
                enabling = getattr(enable.block, "decision", None)
                if enabling is None:
                    raise CompileError(
                        f"enable source {enable.block.path!r} registered no decision"
                    )
                parent = enabling.branches[enable.outcome]
                # Nest under the enabling block's own parent chain implicitly:
                # the enabling decision was registered with its parent already.
            block.register_coverage(registry, parent)
        registry.freeze()
        return registry

    def _state_table(self) -> Dict[str, StateElement]:
        table: Dict[str, StateElement] = {}
        for store in self._stores.values():
            path = f"$store.{store.name}"
            table[path] = StateElement(path, store.ty, store.init, STATE_GLOBAL)
        for block in self._blocks:
            for element in block.state_spec():
                path = f"{block.path}.{element.name}"
                if path in table:
                    raise CompileError(f"duplicate state element {path!r}")
                table[path] = StateElement(
                    path, element.ty, element.init, element.category
                )
        return table


@dataclass(frozen=True)
class StepTemplate:
    """One symbolic step in which inports *and* state elements are
    variables (a state element's variable is named by its path).

    Substituting a state's values for the state variables
    (:func:`repro.expr.variables.substitute`) yields the conditions of
    that state's one-step encoding: the template is the encoder's
    state-generic form.  Substituting step ``k-1``'s next state and step
    ``k``'s inport variables instead composes a bounded unroll.  Chart
    transitions record condition atoms under every leaf here, with
    context ``OR(loc == leaf && evaluated)``.
    """

    #: Names of the inport variables; every other variable is state.
    input_names: frozenset
    #: decision id -> outcome conditions.
    outcome_conditions: Dict[int, List[Expr]]
    #: point id -> (atoms, evaluation context).
    condition_atoms: Dict[int, Tuple[List[Expr], Expr]]
    #: state path -> its value after the step (its own variable where
    #: the step leaves it untouched).
    next_state: Dict[str, Expr]
    #: outport name -> its value this step.
    outputs: Dict[str, Expr]


@dataclass
class CompiledModel:
    """An executable model: plan + instrumentation + state layout."""

    name: str
    plan: Tuple[PlanItem, ...]
    registry: CoverageRegistry
    state_elements: Dict[str, StateElement]
    inports: Tuple[InportSpec, ...]
    outports: Tuple[Tuple[str, Signal], ...]
    n_blocks: int

    def __post_init__(self) -> None:
        # Flat slot tables, resolved once per compiled model so the
        # interpreter's per-step path never touches id()-keyed dicts.
        # Derived attributes, not fields: they are per-instance (never shared
        # between two compiles) and stay out of the dataclass eq/repr.
        index_of: Dict[int, int] = {
            id(item.block): item.index for item in self.plan
        }
        self.plan_index_of: Dict[int, int] = index_of
        #: Per plan item: ``((src_plan_index, src_port), ...)`` for each input.
        self.input_slots: Tuple[Tuple[Tuple[int, int], ...], ...] = tuple(
            tuple(
                (index_of[id(signal.block)], signal.port)
                for signal in item.input_signals
            )
            for item in self.plan
        )
        #: Per outport: ``(name, src_plan_index, src_port)``.
        self.outport_slots: Tuple[Tuple[str, int, int], ...] = tuple(
            (name, index_of[id(signal.block)], signal.port)
            for name, signal in self.outports
        )
        self._step_template: Optional[StepTemplate] = None
        #: The generated concrete step; ``False`` once it proved unbuildable.
        self._step_function = None

    def step_template(self) -> StepTemplate:
        """The model's :class:`StepTemplate`, built on first use (one
        full symbolic step from a symbolic state), then kept."""
        template = self._step_template
        if template is None:
            from repro.model.context import symbolic_context
            from repro.model.executor import execute_step

            inputs = {var.name: var for var in self.input_variables()}
            state = {
                path: Var(path, element.ty)
                for path, element in self.state_elements.items()
            }
            ctx = symbolic_context(inputs, state)
            outputs = execute_step(self, ctx)
            next_state = {**ctx.state_env, **ctx.next_state}
            template = self._step_template = StepTemplate(
                frozenset(inputs),
                ctx.outcome_conditions,
                ctx.condition_atoms,
                {path: lift(value) for path, value in next_state.items()},
                {name: lift(value) for name, value in outputs.items()},
            )
        return template

    def step_function(self):
        """The concrete step generated from the step template
        (:func:`repro.kernel.stepgen.generate_step`), built on first use,
        then kept; ``None`` when the model has none (its template cannot
        be built, or would not reproduce the interpreter), in which case
        the model runs through the interpreter.
        """
        function = self._step_function
        if function is None:
            from repro.kernel.stepgen import generate_step

            try:
                self.step_template()
            except (ExprError, ModelError, SimulationError):
                # Symbolic execution rejects what the interpreter may run.
                function = None
            else:
                function = generate_step(self)
            self._step_function = function or False
        return function or None

    @property
    def has_step_function(self) -> Optional[bool]:
        """Whether the model runs through a generated step; None until
        :meth:`step_function` is first called."""
        function = self._step_function
        return None if function is None else function is not False

    def initial_state(self) -> Dict[str, object]:
        """Fresh state environment with every element at its initial value."""
        return {path: elem.init for path, elem in self.state_elements.items()}

    def input_variables(self, suffix: str = "") -> List[Var]:
        """Symbolic variables for every inport (optionally step-suffixed)."""
        return [spec.as_var(suffix) for spec in self.inports]

    @property
    def n_branches(self) -> int:
        return self.registry.n_branches
