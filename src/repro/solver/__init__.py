"""From-scratch constraint solving stack.

Pipeline stages (see :class:`~repro.solver.engine.SolverEngine`):

1. constant folding (done eagerly by the expression smart constructors),
2. interval contraction (:mod:`repro.solver.contractor`) — an empty
   contracted box is a proof of unsatisfiability,
3. corner/random sampling inside the contracted box
   (:mod:`repro.solver.sampler`),
4. alternating-variable-method search on branch distance
   (:mod:`repro.solver.avm`).

The one-step model encoder that produces the constraints lives in
:mod:`repro.solver.encoder`; :mod:`repro.solver.guards` refutes the
(state, target) pairs whose constraint would fold to ``false`` before
encoding.
"""

from repro.solver.box import Box
from repro.solver.contractor import Contractor
from repro.solver.engine import SolveResult, SolveStats, SolverConfig, SolverEngine, Status
from repro.solver.interval import Interval

__all__ = [
    "Box",
    "Contractor",
    "Interval",
    "SolveResult",
    "SolveStats",
    "SolverConfig",
    "SolverEngine",
    "Status",
]
