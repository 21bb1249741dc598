"""Spans recorded from outside the program, around each layer's entry points.

:func:`instrument` wraps the public entry points of each layer for the
duration of one traced pass and restores them afterwards.  Each wrapped
call is a span; spans nest on one stack, so a layer's *self* time is its
spans' duration minus the time of the spans they caused.  Spans are kept
in memory as per-layer aggregates (count, inclusive and self seconds).

Layers are module names: ``core`` (the STCG loop), ``cache`` (the solve
caches), ``solver`` (one-step encoding and the solve pipeline),
``solverc`` (constraint compilation), ``model`` (concrete simulation),
``coverage``, ``store``, ``fuzz`` and ``baselines`` (SLDV).  Callbacks
the simulator makes into its caller after each step (state-tree growth,
provenance, fuzz bookkeeping) are the calling tool's ``<layer>.on_step``.
"""

from __future__ import annotations

import importlib
import os
import time
from contextlib import contextmanager
from typing import Callable, Dict, List

#: (module, attribute path, layer) of every wrapped entry point.
ROOTS = (
    ("repro.core.stcg", "StcgGenerator.run", "core"),
    ("repro.fuzz.engine", "FuzzGenerator.run", "fuzz"),
    ("repro.baselines.sldv", "SldvGenerator.run", "baselines"),
)


class Spans:
    """Per-layer span aggregates plus the counts taken at the same hooks."""

    def __init__(self):
        self._stack: List[float] = []
        #: layer -> [count, inclusive seconds, self seconds]
        self.totals: Dict[str, List[float]] = {}
        self.counts: Dict[str, float] = {}
        #: Layer of the generator run in progress (names its callbacks).
        self.tool_layer = "core"
        #: Entry points that could not be wrapped (their layers read 0).
        self.missing: List[str] = []

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def timed(self, layer: str, fn: Callable) -> Callable:
        stack = self._stack
        totals = self.totals
        clock = time.perf_counter

        def span(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                agg = totals.get(layer)
                if agg is None:
                    agg = totals[layer] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += elapsed
                agg[2] += elapsed - children
                if stack:
                    stack[-1] += elapsed

        return span

    def self_s(self, layer: str) -> float:
        return self.totals.get(layer, (0, 0.0, 0.0))[2]

    def inclusive_s(self, layer: str) -> float:
        return self.totals.get(layer, (0, 0.0, 0.0))[1]

    def calls(self, layer: str) -> int:
        return int(self.totals.get(layer, (0, 0.0, 0.0))[0])


def _wrappers(spans: Spans):
    """(module, attribute path, factory) for every non-root entry point."""

    def encode(original):
        return spans.timed("solver.encode", original)

    def solve(original):
        timed = spans.timed("solver", original)

        def wrapper(self, constraint, variables, rng=None, compiled=None):
            spans.count("solver.calls")
            if compiled is not None:
                spans.count("solver.compiled_calls")
            return timed(self, constraint, variables, rng, compiled=compiled)

        return wrapper

    def run_sequence(original):
        timed = spans.timed("model", original)

        def wrapper(self, sequence, on_step=None, on_obligations=None):
            layer = f"{spans.tool_layer}.on_step"
            if on_step is not None:
                on_step = spans.timed(layer, on_step)
            if on_obligations is not None:
                on_obligations = spans.timed(layer, on_obligations)
            outcome = timed(self, sequence, on_step, on_obligations)
            spans.count("model.steps", outcome.steps)
            return outcome

        return wrapper

    def coverage(original):
        return spans.timed("coverage", original)

    def store_load(original):
        timed = spans.timed("store.load", original)

        def wrapper(self):
            payload, status = timed(self)
            spans.count(f"store.{status}")
            if status != "miss":
                spans.count("store.bytes_read", os.path.getsize(self.path))
            return payload, status

        return wrapper

    def store_save(original):
        timed = spans.timed("store.save", original)

        def wrapper(self, payload):
            saved = timed(self, payload)
            if saved:
                spans.count("store.bytes_written", os.path.getsize(self.path))
            return saved

        return wrapper

    def cache(original):
        return spans.timed("cache", original)

    def compile_(original):
        return spans.timed("solverc.compile", original)

    def mutate(original):
        return spans.timed("fuzz.mutate", original)

    def unroll(original):
        return spans.timed("baselines.unroll", original)

    return (
        ("repro.core.stcg", "OneStepEncoding", encode),
        ("repro.cache.solve", "SolveCache.encoding", cache),
        ("repro.cache.solve", "SolveCache.dead_verdict", cache),
        ("repro.cache.solve", "SolveCache.compiled_constraint", cache),
        ("repro.solverc.compiler", "ConstraintCompiler.compile", compile_),
        ("repro.solver.engine", "SolverEngine.solve", solve),
        ("repro.model.simulator", "Simulator.run_sequence", run_sequence),
        ("repro.coverage.collector", "CoverageCollector.on_branch", coverage),
        ("repro.coverage.collector", "CoverageCollector.on_condition_vector",
         coverage),
        ("repro.store.store", "WarmStore.load", store_load),
        ("repro.store.store", "WarmStore.save", store_save),
        ("repro.fuzz.mutators", "SequenceMutator.mutate", mutate),
        ("repro.baselines.sldv", "_IncrementalUnroll.extend", unroll),
    )


def _root(spans: Spans, layer: str):
    def factory(original):
        timed = spans.timed(layer, original)

        def run(self):
            spans.tool_layer = layer
            return timed(self)

        return run

    return factory


@contextmanager
def instrument(spans: Spans):
    """Wrap every entry point for the duration of the block."""
    hooks = list(_wrappers(spans))
    hooks += [(module, path, _root(spans, layer)) for module, path, layer in ROOTS]
    undo = []
    try:
        for module_name, path, factory in hooks:
            try:
                owner = importlib.import_module(module_name)
                *parents, name = path.split(".")
                for parent in parents:
                    owner = getattr(owner, parent)
                original = getattr(owner, name)
            except (ImportError, AttributeError):
                spans.missing.append(f"{module_name}.{path}")
                continue
            had_own = name in vars(owner)
            setattr(owner, name, factory(original))
            undo.append((owner, name, original, had_own))
        yield spans
    finally:
        for owner, name, original, had_own in reversed(undo):
            if had_own:
                setattr(owner, name, original)
            else:
                delattr(owner, name)
