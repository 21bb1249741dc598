"""Persistent cross-run warm-start store: a rerun on the same model and
configuration starts from what an earlier run derived.

The store persists only the *derived* state a warm run restores — the
three solve-cache folds (UNSAT verdicts, compiled-bundle first-visit
markers, contraction snapshots) and the fuzz corpus — keyed by
``(model digest, config-relevant digest, schema version)``, so a later
run on the same model warm-starts instead of re-deriving it.  One-step
encodings and the state tree are not persisted: a warm run re-derives
them more cheaply than it could decode them.  See DESIGN.md, "Store
integrity and invalidation", for the key-derivation and bit-identity
arguments.
"""

from repro.store.codec import CodecError
from repro.store.store import (
    STORE_SCHEMA,
    WarmStore,
    config_digest,
    model_digest,
)

__all__ = [
    "CodecError",
    "STORE_SCHEMA",
    "WarmStore",
    "config_digest",
    "model_digest",
]
