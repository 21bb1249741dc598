"""JSON codecs for the warm-start store (:mod:`repro.store`).

Two value families cross the store boundary:

* **model structure** — state/input values, types and expression ASTs,
  encoded one way only: :func:`~repro.store.store.model_digest` hashes
  their canonical JSON, and nothing ever decodes them.  Floats encode
  through ``repr`` (the stdlib ``json`` default, which also admits
  ``Infinity``/``NaN``), booleans stay ``bool`` (``True`` and ``1``
  digest differently), and tuples are tagged so they cannot collide with
  lists.
* **solve-target keys** — the ``("branch", id)`` /
  ``("obligation", ConditionObligation)`` tuples keying the verdict and
  compiled-constraint folds.  This codec is exact:
  ``decode_target_key(encode_target_key(k)) == k``, which is what lets a
  warm run treat a restored verdict or marker as if it had just
  recorded it.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.errors import ReproError
from repro.expr.ast import (
    Binary,
    Const,
    Expr,
    Ite,
    Select,
    Store,
    Unary,
    Var,
)
from repro.expr.types import ArrayType, BOOL, INT, REAL, Type

__all__ = [
    "decode_target_key",
    "encode_expr",
    "encode_target_key",
    "encode_type",
    "encode_value",
]


class CodecError(ReproError):
    """A store payload does not decode to a valid artifact."""


# ---------------------------------------------------------------------------
# types
# ---------------------------------------------------------------------------

_SCALARS = {"bool": BOOL, "int": INT, "real": REAL}


def encode_type(ty: Type):
    if isinstance(ty, ArrayType):
        return ["array", encode_type(ty.elem), ty.length]
    name = getattr(ty, "name", None)
    if name in _SCALARS:
        return name
    raise CodecError(f"unencodable type {ty!r}")


# ---------------------------------------------------------------------------
# state / input values
# ---------------------------------------------------------------------------


def encode_value(value):
    """Encode one state/input value; tuples are tagged apart from lists."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, tuple):
        return {"t": [encode_value(item) for item in value]}
    raise CodecError(f"unencodable value {value!r} ({type(value).__name__})")


# ---------------------------------------------------------------------------
# expression ASTs
# ---------------------------------------------------------------------------


def encode_expr(expr: Expr):
    """Encode an AST as nested lists, children inline."""
    if isinstance(expr, Const):
        return ["c", encode_value(expr.value), encode_type(expr.ty)]
    if isinstance(expr, Var):
        return ["v", expr.name, encode_type(expr.ty), expr.lo, expr.hi]
    if isinstance(expr, Unary):
        return ["u", expr.op, encode_expr(expr.arg), encode_type(expr.ty)]
    if isinstance(expr, Binary):
        return [
            "b",
            expr.op,
            encode_expr(expr.left),
            encode_expr(expr.right),
            encode_type(expr.ty),
        ]
    if isinstance(expr, Ite):
        return [
            "i",
            encode_expr(expr.cond),
            encode_expr(expr.then),
            encode_expr(expr.orelse),
            encode_type(expr.ty),
        ]
    if isinstance(expr, Select):
        return [
            "sel",
            encode_expr(expr.array),
            encode_expr(expr.index),
            encode_type(expr.ty),
        ]
    if isinstance(expr, Store):
        return [
            "sto",
            encode_expr(expr.array),
            encode_expr(expr.index),
            encode_expr(expr.value),
            encode_type(expr.ty),
        ]
    raise CodecError(f"unencodable expression node {type(expr).__name__}")


# ---------------------------------------------------------------------------
# solve-target keys
# ---------------------------------------------------------------------------


def encode_target_key(target_key) -> List:
    kind, payload = target_key
    if kind == "branch":
        return ["b", int(payload)]
    if kind == "obligation":
        return [
            "o",
            int(payload.point_id),
            int(payload.atom),
            bool(payload.polarity),
            bool(payload.determining),
        ]
    raise CodecError(f"unencodable target key {target_key!r}")


def decode_target_key(obj) -> Tuple[str, object]:
    from repro.coverage.collector import ConditionObligation

    if not isinstance(obj, list) or not obj:
        raise CodecError(f"malformed target key {obj!r}")
    if obj[0] == "b" and len(obj) == 2:
        return ("branch", int(obj[1]))
    if obj[0] == "o" and len(obj) == 5:
        return (
            "obligation",
            ConditionObligation(
                int(obj[1]), int(obj[2]), bool(obj[3]), bool(obj[4])
            ),
        )
    raise CodecError(f"malformed target key {obj!r}")
