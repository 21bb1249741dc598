"""Stable content fingerprints for model-state snapshots.

:func:`state_fingerprint` reduces a state mapping (path -> value) to a
fixed-width hex digest with three guarantees the solve caches rely on:

* **order independence** — entries are folded in sorted-key order, so two
  mappings built in different insertion orders fingerprint identically;
* **equality consistency** — mappings that compare equal under ``==``
  fingerprint identically.  Numerics are canonicalized the way Python
  compares them (``True == 1 == 1.0``), so the fingerprint partitions
  states exactly like :meth:`ModelState.signature` tuple equality does;
* **process stability** — the digest is SHA-256 over a canonical byte
  encoding, never Python's randomized ``hash``, so it is identical across
  processes, interpreters and ``PYTHONHASHSEED`` values.  Fingerprints can
  therefore key on-disk artifacts and cross-process caches safely.

The value encoder is deliberately closed over the types a
:class:`~repro.model.state.ModelState` may contain (scalars, strings,
``None``, tuples — plus lists, byte strings, mappings, sets, and
third-party numeric scalars and ``tolist()`` arrays defensively).
Anything else raises :class:`TypeError` rather than silently
fingerprinting by identity.
"""

from __future__ import annotations

import hashlib
import math
import numbers
from typing import Mapping

__all__ = ["state_fingerprint", "fingerprint_value"]

#: Hex characters kept from the SHA-256 digest (128 bits: collision-safe
#: for any conceivable state population, half the string-storage cost).
_DIGEST_HEX = 32

# One-byte type tags.  Every variable-length payload is preceded by a
# 4-byte big-endian length so distinct structures cannot collide by
# concatenation (e.g. ("ab", "c") vs ("a", "bc")).
_TAG_INT = b"n"
_TAG_FLOAT = b"f"
_TAG_NAN = b"N"
_TAG_INF = b"I"
_TAG_NEG_INF = b"J"
_TAG_STR = b"s"
_TAG_BYTES = b"b"
_TAG_NONE = b"z"
_TAG_TUPLE = b"t"
_TAG_LIST = b"l"
_TAG_MAP = b"m"
_TAG_SET = b"S"
_TAG_KEY = b"k"


def _update_sized(h, tag: bytes, payload: bytes) -> None:
    h.update(tag)
    h.update(len(payload).to_bytes(4, "big"))
    h.update(payload)


def _update_number(h, value) -> None:
    """Canonical numeric encoding: equal numbers encode identically.

    ``bool``/``int``/integral-``float`` (and any other :mod:`numbers`
    types) all collapse onto the exact-integer encoding, mirroring
    Python's numeric equality; non-integral floats use their exact hex
    representation.
    """
    if isinstance(value, numbers.Integral):
        _update_sized(h, _TAG_INT, repr(int(value)).encode("ascii"))
        return
    value = float(value)
    if math.isnan(value):
        h.update(_TAG_NAN)
    elif math.isinf(value):
        h.update(_TAG_INF if value > 0 else _TAG_NEG_INF)
    elif value.is_integer():
        _update_sized(h, _TAG_INT, repr(int(value)).encode("ascii"))
    else:
        _update_sized(h, _TAG_FLOAT, value.hex().encode("ascii"))


def _update_value(h, value) -> None:
    # Ordered roughly by frequency in real model states.
    if isinstance(value, numbers.Number):  # bool, int, float, array scalars
        _update_number(h, value)
    elif isinstance(value, str):
        _update_sized(h, _TAG_STR, value.encode("utf-8"))
    elif value is None:
        h.update(_TAG_NONE)
    elif isinstance(value, tuple):
        h.update(_TAG_TUPLE)
        h.update(len(value).to_bytes(4, "big"))
        for item in value:
            _update_value(h, item)
    elif isinstance(value, list):
        h.update(_TAG_LIST)
        h.update(len(value).to_bytes(4, "big"))
        for item in value:
            _update_value(h, item)
    elif isinstance(value, (bytes, bytearray)):
        _update_sized(h, _TAG_BYTES, bytes(value))
    elif isinstance(value, Mapping):
        h.update(_TAG_MAP)
        h.update(len(value).to_bytes(4, "big"))
        for key in sorted(value):
            _update_sized(h, _TAG_KEY, str(key).encode("utf-8"))
            _update_value(h, value[key])
    elif isinstance(value, (set, frozenset)):
        # Order-independent: fold the sorted element digests.
        digests = sorted(fingerprint_value(item) for item in value)
        h.update(_TAG_SET)
        h.update(len(digests).to_bytes(4, "big"))
        for digest in digests:
            h.update(digest.encode("ascii"))
    elif hasattr(value, "tolist"):  # ndarray-like containers
        _update_value(h, value.tolist())
    else:
        raise TypeError(
            "cannot fingerprint a state value of type "
            f"{type(value).__name__}: {value!r}"
        )


def fingerprint_value(value) -> str:
    """Digest of one value under the canonical encoding (hex string)."""
    h = hashlib.sha256()
    _update_value(h, value)
    return h.hexdigest()[:_DIGEST_HEX]


def state_fingerprint(values: Mapping[str, object]) -> str:
    """Order-independent content digest of a state mapping (hex string).

    ``values`` is a path -> value mapping (a :class:`ModelState`'s
    ``values``, or any plain dict with the same shape).  Two mappings that
    are ``==``-equal produce the same fingerprint regardless of insertion
    order; any single ``!=`` value change produces a different one.
    """
    h = hashlib.sha256()
    h.update(len(values).to_bytes(4, "big"))
    for key in sorted(values):
        _update_sized(h, _TAG_KEY, key.encode("utf-8"))
        _update_value(h, values[key])
    return h.hexdigest()[:_DIGEST_HEX]
