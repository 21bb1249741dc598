"""Coverage-guided mutational fuzzing over compiled models.

The package attacks the (state, branch) residue STCG's one-step solver
leaves uncovered with a corpus-based mutational fuzzer, and fuses the
two in a hybrid mode:

* :mod:`repro.fuzz.mutators` — deterministic seeded sequence mutators
  (value perturbation, step splice/duplicate/truncate, crossover).
* :mod:`repro.fuzz.corpus` — coverage-feedback corpus retention keyed
  on the Decision/Condition/MCDC objective ids of
  :mod:`repro.provenance`.
* :mod:`repro.fuzz.engine` — the campaign loop, the standalone
  ``tool="Fuzz"`` generator, and the ``tool="Hybrid"`` generator whose
  fuzz phase targets exactly the objectives the STCG pass left
  uncovered and feeds covering states back into the state tree for a
  second solver pass.
"""

from repro.fuzz.corpus import Corpus, CorpusEntry
from repro.fuzz.engine import (
    FuzzCampaign,
    FuzzGenerator,
    HybridGenerator,
    derive_fuzz_seed,
)
from repro.fuzz.mutators import MUTATION_OPS, SequenceMutator

__all__ = [
    "Corpus",
    "CorpusEntry",
    "FuzzCampaign",
    "FuzzGenerator",
    "HybridGenerator",
    "MUTATION_OPS",
    "SequenceMutator",
    "derive_fuzz_seed",
]
