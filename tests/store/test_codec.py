"""The warm-start store codecs (repro.store.codec).

Values, types and expressions are encoded one way only, for the model
digest, so distinct inputs must encode to distinct JSON.  Target keys
key the verdict and marker folds and must round-trip exactly.
"""

import json

import pytest

from repro.coverage.collector import ConditionObligation
from repro.expr.ast import Binary, Const, Ite, Select, Store, Unary, Var
from repro.expr.types import ArrayType, BOOL, INT, REAL
from repro.store.codec import (
    CodecError,
    decode_target_key,
    encode_expr,
    encode_target_key,
    encode_type,
    encode_value,
)


def _dumps(encoded):
    return json.dumps(encoded, sort_keys=True)


class TestTypeCodec:
    def test_distinct_types_encode_apart(self):
        types = [BOOL, INT, REAL, ArrayType(INT, 3), ArrayType(BOOL, 3),
                 ArrayType(INT, 7)]
        assert len({_dumps(encode_type(ty)) for ty in types}) == len(types)

    def test_unknown_type_rejected(self):
        with pytest.raises(CodecError):
            encode_type(object())


class TestValueCodec:
    @pytest.mark.parametrize(
        "a, b",
        [(True, 1), (False, 0), (1, 1.0), (-0.0, 0.0), ((1, 2), (1, (2,)))],
    )
    def test_distinct_values_encode_apart(self, a, b):
        assert _dumps(encode_value(a)) != _dumps(encode_value(b))

    def test_unencodable_value_rejected(self):
        with pytest.raises(CodecError):
            encode_value(object())


def _sample_exprs():
    x = Var("x", INT, 0, 10)
    arr = Var("a", ArrayType(INT, 3), None, None)
    return [
        Const(True, BOOL),
        Const(2.5, REAL),
        Var("b", BOOL, None, None),
        Unary("not", Var("b", BOOL, None, None), BOOL),
        Binary("add", x, Const(1, INT), INT),
        Ite(Var("b", BOOL, None, None), x, Const(0, INT), INT),
        Select(arr, Const(1, INT), INT),
        Store(arr, Const(1, INT), x, ArrayType(INT, 3)),
    ]


class TestExprCodec:
    def test_distinct_expressions_encode_apart(self):
        encoded = {_dumps(encode_expr(expr)) for expr in _sample_exprs()}
        assert len(encoded) == len(_sample_exprs())

    def test_equal_expressions_encode_equally(self):
        for left, right in zip(_sample_exprs(), _sample_exprs()):
            assert _dumps(encode_expr(left)) == _dumps(encode_expr(right))

    def test_unencodable_node_rejected(self):
        with pytest.raises(CodecError):
            encode_expr(object())


class TestTargetKeyCodec:
    def test_branch_round_trip(self):
        assert decode_target_key(encode_target_key(("branch", 9))) == (
            "branch", 9,
        )

    def test_obligation_round_trip(self):
        obligation = ConditionObligation(3, 1, True, False)
        kind, decoded = decode_target_key(
            encode_target_key(("obligation", obligation))
        )
        assert kind == "obligation"
        assert decoded == obligation

    def test_malformed_key_rejected(self):
        with pytest.raises(CodecError):
            decode_target_key(["o", 1])
