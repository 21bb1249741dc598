"""Matrix cells: the unit of work of the parallel experiment executor.

A *cell* is one (tool, model, repetition) triple of the paper's evaluation
matrix.  Cells carry everything a worker process needs to run them — the
benchmark entry (whose builder is a picklable module-level function), the
budget and a derived seed — so they can be shipped to a
:class:`~concurrent.futures.ProcessPoolExecutor` unchanged.

Seed derivation is collision-free and process-stable: the legacy scheme
(``seed * 1000 + repetition * 7 + tool_salt % 97``) collides across
(tool, repetition) pairs, and Python's builtin ``hash`` is randomized per
process, so both are replaced by a SHA-256 digest over the identifying
tuple.  ``workers=1`` and ``workers=N`` therefore run every cell with the
same seed and aggregate to bit-identical coverage numbers.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.models.registry import BenchmarkModel

#: Seeds are truncated to 63 bits: plenty of entropy, still a fast C int.
_SEED_BITS = 63


def derive_seed(master: int, model: str, tool: str, repetition: int) -> int:
    """A per-cell seed that cannot collide across (model, tool, repetition).

    Stable across processes and Python versions (unlike ``hash``), and
    injective for all practical matrices (SHA-256 truncated to 63 bits).
    """
    key = f"{master}|{model}|{tool}|{repetition}".encode()
    digest = hashlib.sha256(key).digest()
    return int.from_bytes(digest[:8], "big") & ((1 << _SEED_BITS) - 1)


@dataclass(frozen=True)
class CellSpec:
    """One (tool, model, repetition) cell, ready to ship to a worker."""

    index: int
    tool: str
    model: BenchmarkModel
    repetition: int
    repetitions: int
    seed: int
    budget_s: float
    sldv_max_depth: int = 6
    #: Deep tracing (``repro.trace/1``) for this cell's generator.
    trace: bool = False
    #: Objective-level coverage provenance (``repro.provenance/1``) for
    #: this cell's generator.  Observation only.
    provenance: bool = True
    #: Extra ``StcgConfig`` fields for this cell's generator, as a sorted
    #: (name, value) tuple so the spec stays hashable and picklable (e.g.
    #: ``(("skip_constant_false", False),)`` for a constant-false
    #: ablation run).  Ignored by non-STCG tools.
    stcg_overrides: tuple = ()
    #: Warm-start store directory (:mod:`repro.store`), or "" for no
    #: store.  Store keys are scoped per cell (tool + derived seed), so
    #: every worker reads and writes its own document — concurrent
    #: matrix workers never contend on one file.
    store_dir: str = ""

    @property
    def label(self) -> str:
        return (
            f"{self.model.name}/{self.tool} "
            f"rep {self.repetition + 1}/{self.repetitions}"
        )

    def identity(self) -> Dict[str, object]:
        """The fields that identify this cell in telemetry events."""
        return {
            "cell": self.index,
            "model": self.model.name,
            "tool": self.tool,
            "repetition": self.repetition,
            "seed": self.seed,
        }


@dataclass
class CellFailure:
    """A cell that timed out or crashed instead of producing a result.

    The executor records these and keeps going — one hung or crashing cell
    must not abort the rest of the matrix.
    """

    tool: str
    model: str
    repetition: int
    seed: int
    kind: str  # "timeout" | "crash"
    message: str
    traceback: str = ""
    duration_s: float = 0.0

    @property
    def label(self) -> str:
        return f"{self.model}/{self.tool} rep {self.repetition + 1}"


def plan_matrix(
    models: Sequence[BenchmarkModel],
    tools: Sequence[str],
    *,
    budget_s: float,
    repetitions: int,
    sldv_repetitions: int,
    seed: int,
    sldv_max_depth: int = 6,
    trace: bool = False,
    provenance: bool = True,
    stcg_overrides: Dict[str, object] = None,
    store_dir: str = "",
) -> List[CellSpec]:
    """Expand a matrix into its cell list, in deterministic order.

    The order (model-major, then tool, then repetition) matches the legacy
    serial runner, so progress output and aggregation are stable no matter
    how many workers later execute the plan.
    """
    overrides = tuple(sorted((stcg_overrides or {}).items()))
    cells: List[CellSpec] = []
    for model in models:
        for tool in tools:
            reps = sldv_repetitions if tool == "SLDV" else repetitions
            for repetition in range(reps):
                cells.append(
                    CellSpec(
                        index=len(cells),
                        tool=tool,
                        model=model,
                        repetition=repetition,
                        repetitions=reps,
                        seed=derive_seed(seed, model.name, tool, repetition),
                        budget_s=budget_s,
                        sldv_max_depth=sldv_max_depth,
                        trace=trace,
                        provenance=provenance,
                        stcg_overrides=overrides,
                        store_dir=store_dir,
                    )
                )
    return cells
