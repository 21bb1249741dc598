"""Compiled concrete execution.

:mod:`repro.kernel.stepgen` renders a compiled model's step template as
one generated Python function per model — the concrete fast path behind
``Simulator(kernel=True)``, observably equivalent to the generic
interpreter in :mod:`repro.model.executor` (see DESIGN.md, "Kernel
soundness").  :mod:`repro.kernel.exprc` compiles single expression DAGs
to closures for the solver's objectives and the state guards.
"""

from repro.kernel.exprc import compile_expr
from repro.kernel.stepgen import generate_step

__all__ = ["compile_expr", "generate_step"]
