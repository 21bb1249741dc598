"""Model-state snapshots (the paper's Definition 2).

A :class:`ModelState` maps state-element path to value, covering:

* ``G/GV`` — data stores (paths prefixed ``$store.``),
* ``M/ML`` — chart locations and chart locals (category ``chart``),
* ``I/IV`` — block internal state (category ``internal``).

Every value is an immutable Python scalar or tuple, so snapshots are cheap
(one dict copy) and hashable via :meth:`signature`.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Dict, Mapping, Tuple

from repro.cache.fingerprint import state_fingerprint
from repro.errors import StateError
from repro.model.block import STATE_CHART, STATE_GLOBAL, STATE_INTERNAL, StateElement


class ModelState:
    """An immutable snapshot of every state element of a model."""

    __slots__ = ("_values", "_signature", "_fingerprint")

    def __init__(self, values: Mapping[str, object]):
        self._values: Dict[str, object] = dict(values)
        self._signature: Tuple = ()
        self._fingerprint: str = ""

    # -- access ---------------------------------------------------------------

    @property
    def values(self) -> Mapping[str, object]:
        return dict(self._values)

    def view(self) -> Mapping[str, object]:
        """A read-only view of the snapshot (no copy, unlike :attr:`values`)."""
        return MappingProxyType(self._values)

    def get(self, path: str):
        try:
            return self._values[path]
        except KeyError:
            raise StateError(f"state element {path!r} not in snapshot") from None

    def __contains__(self, path: str) -> bool:
        return path in self._values

    def __len__(self) -> int:
        return len(self._values)

    # -- identity ----------------------------------------------------------------

    def signature(self) -> Tuple:
        """A hashable identity for duplicate-state detection."""
        if not self._signature:
            self._signature = tuple(sorted(self._values.items()))
        return self._signature

    def fingerprint(self) -> str:
        """Stable content digest (cached): the solve-cache key.

        Order-independent over the underlying mapping, consistent with
        ``==`` (equal states share a fingerprint), and identical across
        processes regardless of ``PYTHONHASHSEED`` — see
        :func:`repro.cache.fingerprint.state_fingerprint`.
        """
        if not self._fingerprint:
            self._fingerprint = state_fingerprint(self._values)
        return self._fingerprint

    def __eq__(self, other) -> bool:
        if not isinstance(other, ModelState):
            return NotImplemented
        return self._values == other._values

    def __hash__(self) -> int:
        return hash(self.signature())

    # -- categorised views (G/GV, M/ML, I/IV) ------------------------------------

    def split(
        self, elements: Mapping[str, StateElement]
    ) -> Dict[str, Dict[str, object]]:
        """Partition the snapshot by Definition 2 categories."""
        parts: Dict[str, Dict[str, object]] = {
            STATE_GLOBAL: {},
            STATE_CHART: {},
            STATE_INTERNAL: {},
        }
        for path, value in self._values.items():
            element = elements.get(path)
            category = element.category if element is not None else STATE_INTERNAL
            parts[category][path] = value
        return parts

    def diff(self, other: "ModelState") -> Dict[str, Tuple[object, object]]:
        """Elements whose values differ: path -> (self value, other value)."""
        changed = {}
        for path, value in self._values.items():
            other_value = other._values.get(path)
            if other_value != value:
                changed[path] = (value, other_value)
        return changed

    def __repr__(self) -> str:
        return f"ModelState({len(self._values)} elements)"
