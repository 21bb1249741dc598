"""Exact JSON codecs for the warm-start store (:mod:`repro.store`).

Everything the store persists reduces to three value families:

* **state/input values** — the immutable Python scalars and tuples held
  by :class:`~repro.model.state.ModelState` snapshots and test inputs,
* **expression ASTs** — the pure immutable nodes of
  :mod:`repro.expr.ast` (one-step encodings, contraction constraints),
* **solve-target keys** — the ``("branch", id)`` /
  ``("obligation", ConditionObligation)`` tuples keying the verdict and
  compiled-constraint caches.

All three codecs are *exact*: ``decode(encode(x))`` is structurally
equal to ``x`` (``==`` for values, structural ``Expr.__eq__`` for ASTs,
tuple equality for target keys).  Exactness is what lets a warm run
treat restored artifacts as if it had just computed them — floats
round-trip through ``repr`` (the stdlib ``json`` default, which also
admits ``Infinity``/``NaN``), booleans stay ``bool`` (so the generator's
``Const.value is False`` fold check still fires), and tuples are tagged
so :func:`~repro.cache.fingerprint.state_fingerprint` sees the same
type tags after a round trip.

Decoding constructs AST nodes through the *raw* class constructors, not
the folding smart constructors of :mod:`repro.expr.ops` — the stored
tree is already the folded form the cold run built, and re-folding could
only diverge from it.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

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
    "ExprTable",
    "decode_encoding",
    "decode_expr",
    "decode_expr_table",
    "decode_target_key",
    "decode_type",
    "decode_value",
    "encode_encoding",
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


def decode_type(obj) -> Type:
    if isinstance(obj, str):
        try:
            return _SCALARS[obj]
        except KeyError:
            raise CodecError(f"unknown scalar type {obj!r}") from None
    if isinstance(obj, list) and len(obj) == 3 and obj[0] == "array":
        return ArrayType(decode_type(obj[1]), int(obj[2]))
    raise CodecError(f"malformed type payload {obj!r}")


# ---------------------------------------------------------------------------
# state / input values
# ---------------------------------------------------------------------------


def encode_value(value):
    """Encode one state/input value; tuples are tagged to survive JSON."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, tuple):
        return {"t": [encode_value(item) for item in value]}
    raise CodecError(f"unencodable value {value!r} ({type(value).__name__})")


def decode_value(obj):
    if isinstance(obj, dict):
        try:
            items = obj["t"]
        except KeyError:
            raise CodecError(f"malformed value payload {obj!r}") from None
        return tuple(decode_value(item) for item in items)
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    raise CodecError(f"malformed value payload {obj!r}")


def encode_values(values: Dict[str, object]) -> Dict[str, object]:
    return {name: encode_value(value) for name, value in values.items()}


def decode_values(obj: Dict[str, object]) -> Dict[str, object]:
    if not isinstance(obj, dict):
        raise CodecError(f"malformed values payload {obj!r}")
    return {str(name): decode_value(value) for name, value in obj.items()}


# ---------------------------------------------------------------------------
# expression ASTs
# ---------------------------------------------------------------------------


def encode_expr(expr: Expr):
    """Encode an AST bottom-up (explicit stack — trees can be deep)."""
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


def decode_expr(obj) -> Expr:
    if not isinstance(obj, list) or not obj:
        raise CodecError(f"malformed expression payload {obj!r}")
    tag = obj[0]
    try:
        if tag == "c":
            return Const(decode_value(obj[1]), decode_type(obj[2]))
        if tag == "v":
            return Var(str(obj[1]), decode_type(obj[2]), obj[3], obj[4])
        if tag == "u":
            return Unary(obj[1], decode_expr(obj[2]), decode_type(obj[3]))
        if tag == "b":
            return Binary(
                obj[1],
                decode_expr(obj[2]),
                decode_expr(obj[3]),
                decode_type(obj[4]),
            )
        if tag == "i":
            return Ite(
                decode_expr(obj[1]),
                decode_expr(obj[2]),
                decode_expr(obj[3]),
                decode_type(obj[4]),
            )
        if tag == "sel":
            return Select(
                decode_expr(obj[1]), decode_expr(obj[2]), decode_type(obj[3])
            )
        if tag == "sto":
            return Store(
                decode_expr(obj[1]),
                decode_expr(obj[2]),
                decode_expr(obj[3]),
                decode_type(obj[4]),
            )
    except (IndexError, TypeError, ValueError) as err:
        raise CodecError(f"malformed {tag!r} node: {err}") from err
    raise CodecError(f"unknown expression tag {tag!r}")


# ---------------------------------------------------------------------------
# shared expression tables
# ---------------------------------------------------------------------------


class ExprTable:
    """Identity-memoized DAG encoder for a *set* of expression ASTs.

    One-step encodings share subtrees massively — every outcome
    condition of a state substitutes the same state constants into the
    same model template — and :func:`encode_expr` re-serializes each
    shared subtree at every reference.  The table instead assigns each
    distinct *object* one index in a flat, children-before-parents node
    list; references become integers.  On CPUTask this shrinks the
    encodings fold roughly 20x and makes encode/decode near-linear in
    the number of unique nodes.

    Identity (not structural) memoization is sound and cheap here: the
    table pins every encoded node alive (``_keep``), so an ``id`` can
    never be recycled while the table exists.  Two structurally equal
    but distinct objects simply encode twice — a size, never a
    correctness, concern.  Digests must NOT use tables for exactly that
    reason: sharing structure varies run to run, content does not.
    """

    def __init__(self) -> None:
        self.nodes: List[list] = []
        self._index: Dict[int, int] = {}
        self._keep: List[Expr] = []

    def add(self, expr: Expr) -> int:
        """Intern ``expr`` (children first) and return its node index."""
        index = self._index.get(id(expr))
        if index is not None:
            return index
        if isinstance(expr, Const):
            node = ["c", encode_value(expr.value), encode_type(expr.ty)]
        elif isinstance(expr, Var):
            node = ["v", expr.name, encode_type(expr.ty), expr.lo, expr.hi]
        elif isinstance(expr, Unary):
            node = ["u", expr.op, self.add(expr.arg), encode_type(expr.ty)]
        elif isinstance(expr, Binary):
            node = [
                "b",
                expr.op,
                self.add(expr.left),
                self.add(expr.right),
                encode_type(expr.ty),
            ]
        elif isinstance(expr, Ite):
            node = [
                "i",
                self.add(expr.cond),
                self.add(expr.then),
                self.add(expr.orelse),
                encode_type(expr.ty),
            ]
        elif isinstance(expr, Select):
            node = [
                "sel",
                self.add(expr.array),
                self.add(expr.index),
                encode_type(expr.ty),
            ]
        elif isinstance(expr, Store):
            node = [
                "sto",
                self.add(expr.array),
                self.add(expr.index),
                self.add(expr.value),
                encode_type(expr.ty),
            ]
        else:
            raise CodecError(
                f"unencodable expression node {type(expr).__name__}"
            )
        self.nodes.append(node)
        index = len(self.nodes) - 1
        self._index[id(expr)] = index
        self._keep.append(expr)
        return index


def decode_expr_table(nodes) -> List[Expr]:
    """Decode an :class:`ExprTable` node list back into live ASTs.

    Returns one ``Expr`` per node, in table order; consumers look their
    expressions up by index.  Node references decode to *shared* Python
    objects, reproducing (at least) the sharing the encoder saw — the
    ASTs are immutable, so sharing is invisible to every consumer.
    """
    if not isinstance(nodes, list):
        raise CodecError(f"malformed expression table {nodes!r}")
    exprs: List[Expr] = []

    def child(obj) -> Expr:
        index = int(obj)
        if not 0 <= index < len(exprs):
            raise CodecError(f"expression table index {obj!r} out of range")
        return exprs[index]

    for obj in nodes:
        if not isinstance(obj, list) or not obj:
            raise CodecError(f"malformed expression table node {obj!r}")
        tag = obj[0]
        try:
            if tag == "c":
                expr = Const(decode_value(obj[1]), decode_type(obj[2]))
            elif tag == "v":
                expr = Var(str(obj[1]), decode_type(obj[2]), obj[3], obj[4])
            elif tag == "u":
                expr = Unary(obj[1], child(obj[2]), decode_type(obj[3]))
            elif tag == "b":
                expr = Binary(
                    obj[1], child(obj[2]), child(obj[3]), decode_type(obj[4])
                )
            elif tag == "i":
                expr = Ite(
                    child(obj[1]),
                    child(obj[2]),
                    child(obj[3]),
                    decode_type(obj[4]),
                )
            elif tag == "sel":
                expr = Select(child(obj[1]), child(obj[2]), decode_type(obj[3]))
            elif tag == "sto":
                expr = Store(
                    child(obj[1]),
                    child(obj[2]),
                    child(obj[3]),
                    decode_type(obj[4]),
                )
            else:
                raise CodecError(f"unknown expression tag {tag!r}")
        except (IndexError, TypeError, ValueError) as err:
            raise CodecError(f"malformed {tag!r} node: {err}") from err
        exprs.append(expr)
    return exprs


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


# ---------------------------------------------------------------------------
# one-step encodings
# ---------------------------------------------------------------------------


def encode_encoding(encoding, table: ExprTable) -> Dict[str, object]:
    """Serialize the STCG-visible face of a one-step encoding.

    The generator consumes exactly four things from an encoding:
    ``variables`` (rebuilt from the compiled model on decode),
    ``compiled`` (re-attached on decode), the per-decision outcome
    conditions, and the per-point condition atoms.  Encodings are
    specialized on demand, so only the conditions and atoms computed so
    far are persisted; the decoded encoding specializes any missing one
    from the step template on first query, exactly as the original would
    have.  The symbolic next state is never persisted.

    Every expression goes through the shared ``table`` (encodings of
    neighbouring states share most of their subtrees), so the payload
    holds integer node references, not trees.
    """
    return {
        "state": encode_values(encoding.state.values),
        "outcomes": {
            str(decision_id): [table.add(cond) for cond in conditions]
            for decision_id, conditions in encoding._outcome_conditions.items()
        },
        "atoms": {
            str(point_id): [
                [table.add(atom) for atom in atoms],
                table.add(context),
            ]
            for point_id, (atoms, context) in encoding._condition_atoms.items()
        },
    }


def decode_encoding(payload, compiled, exprs: List[Expr]):
    """Rebuild a :class:`~repro.solver.encoder.OneStepEncoding`.

    ``exprs`` is the decoded expression table
    (:func:`decode_expr_table`) the payload's node references index
    into.  The result is an encoding over the stored state whose
    restored conditions and atoms are authoritative: they are
    structurally equal to what a cold build records, and a query for a
    missing one specializes that entry of the model's step template to
    the stored state.  An absent condition point therefore does not
    mean "unreachable" by itself: it may simply not have been queried
    yet (which is why :data:`~repro.store.store.STORE_SCHEMA` is
    ``repro.store/2``).
    """
    from repro.model.state import ModelState
    from repro.solver.encoder import OneStepEncoding

    if not isinstance(payload, dict):
        raise CodecError(f"malformed encoding payload {payload!r}")

    def expr(obj) -> Expr:
        index = int(obj)
        if not 0 <= index < len(exprs):
            raise CodecError(f"encoding node index {obj!r} out of range")
        return exprs[index]

    try:
        return OneStepEncoding(
            compiled,
            ModelState(decode_values(payload["state"])),
            outcome_conditions={
                int(decision_id): [expr(cond) for cond in conditions]
                for decision_id, conditions in payload["outcomes"].items()
            },
            condition_atoms={
                int(point_id): (
                    [expr(atom) for atom in pair[0]],
                    expr(pair[1]),
                )
                for point_id, pair in payload["atoms"].items()
            },
        )
    except (KeyError, TypeError, ValueError, AttributeError) as err:
        raise CodecError(f"malformed encoding payload: {err}") from err
