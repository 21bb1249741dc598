"""Exactness of the warm-start store codecs (repro.store.codec)."""

import math

import pytest

from repro.coverage.collector import ConditionObligation
from repro.expr.ast import Binary, Const, Ite, Select, Store, Unary, Var
from repro.expr.types import ArrayType, BOOL, INT, REAL
from repro.model.state import ModelState
from repro.solver.encoder import OneStepEncoding
from repro.store.codec import (
    CodecError,
    ExprTable,
    decode_encoding,
    decode_expr,
    decode_expr_table,
    decode_target_key,
    decode_type,
    decode_value,
    encode_encoding,
    encode_expr,
    encode_target_key,
    encode_type,
    encode_value,
)
from tests.conftest import build_counter_model, build_queue_model


class TestTypeCodec:
    @pytest.mark.parametrize(
        "ty", [BOOL, INT, REAL, ArrayType(INT, 3), ArrayType(BOOL, 7)]
    )
    def test_round_trip(self, ty):
        assert decode_type(encode_type(ty)) == ty

    def test_unknown_scalar_rejected(self):
        with pytest.raises(CodecError):
            decode_type("complex")

    def test_malformed_payload_rejected(self):
        with pytest.raises(CodecError):
            decode_type(["array", "int"])


class TestValueCodec:
    @pytest.mark.parametrize(
        "value",
        [
            None,
            True,
            False,
            0,
            -17,
            3.5,
            -0.0,
            math.inf,
            "s",
            (1, 2, 3),
            ((True, 0.5), (), "x"),
        ],
    )
    def test_round_trip(self, value):
        decoded = decode_value(encode_value(value))
        assert decoded == value
        # bool vs int must survive: the generator folds on `is False`.
        assert type(decoded) is type(value)

    def test_tuples_stay_tuples(self):
        decoded = decode_value(encode_value((1, (2, 3))))
        assert isinstance(decoded, tuple)
        assert isinstance(decoded[1], tuple)

    def test_unencodable_value_rejected(self):
        with pytest.raises(CodecError):
            encode_value(object())

    def test_malformed_dict_rejected(self):
        with pytest.raises(CodecError):
            decode_value({"not_t": []})


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
    @pytest.mark.parametrize("expr", _sample_exprs())
    def test_round_trip(self, expr):
        assert decode_expr(encode_expr(expr)) == expr

    def test_unknown_tag_rejected(self):
        with pytest.raises(CodecError):
            decode_expr(["zzz", 1])

    def test_malformed_node_rejected(self):
        with pytest.raises(CodecError):
            decode_expr(["b", "add"])  # missing operands


class TestExprTable:
    def test_round_trip_preserves_structure(self):
        table = ExprTable()
        indices = [table.add(expr) for expr in _sample_exprs()]
        decoded = decode_expr_table(table.nodes)
        for expr, index in zip(_sample_exprs(), indices):
            assert decoded[index] == expr

    def test_shared_subtree_interned_once(self):
        x = Var("x", INT, 0, 10)
        left = Binary("add", x, Const(1, INT), INT)
        right = Binary("sub", x, Const(1, INT), INT)
        table = ExprTable()
        table.add(left)
        before = len(table.nodes)
        table.add(right)
        # `x` is shared by identity, so only the new nodes land.
        decoded = decode_expr_table(table.nodes)
        assert decoded[before + 1] == right or right in decoded
        assert table.nodes.count(["v", "x", "int", 0, 10]) == 1

    def test_decoded_references_are_shared_objects(self):
        x = Var("x", INT, 0, 10)
        table = ExprTable()
        table.add(Binary("add", x, x, INT))
        decoded = decode_expr_table(table.nodes)
        top = decoded[-1]
        assert top.left is top.right

    def test_out_of_range_reference_rejected(self):
        with pytest.raises(CodecError):
            decode_expr_table([["u", "not", 5, "bool"]])

    def test_forward_reference_rejected(self):
        # children-before-parents is part of the format
        with pytest.raises(CodecError):
            decode_expr_table([["u", "not", 1, "bool"], ["c", True, "bool"]])

    def test_non_list_table_rejected(self):
        with pytest.raises(CodecError):
            decode_expr_table({"0": ["c", True, "bool"]})


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


class TestEncodingCodec:
    @pytest.mark.parametrize(
        "build", [build_counter_model, build_queue_model]
    )
    def test_round_trip_matches_cold_build(self, build):
        compiled = build()
        encoding = OneStepEncoding(
            compiled, ModelState(compiled.initial_state())
        ).complete()
        table = ExprTable()
        payload = encode_encoding(encoding, table)
        exprs = decode_expr_table(table.nodes)
        decoded = decode_encoding(payload, compiled, exprs)
        assert decoded.state.values == encoding.state.values
        assert decoded._outcome_conditions == encoding._outcome_conditions
        assert decoded._condition_atoms == encoding._condition_atoms
        assert decoded.variables == encoding.variables

    def test_malformed_payload_rejected(self):
        compiled = build_counter_model()
        with pytest.raises(CodecError):
            decode_encoding(["not", "a", "dict"], compiled, [])
        with pytest.raises(CodecError):
            decode_encoding({"state": {}}, compiled, [])  # missing folds

    def test_out_of_range_node_reference_rejected(self):
        compiled = build_counter_model()
        encoding = OneStepEncoding(
            compiled, ModelState(compiled.initial_state())
        ).complete()
        table = ExprTable()
        payload = encode_encoding(encoding, table)
        with pytest.raises(CodecError):
            decode_encoding(payload, compiled, [])  # empty table


class TestPartialEncodingRestore:
    """Encodings are persisted as far as they were computed; a restored
    one computes the rest on demand and answers like a cold full build."""

    @pytest.mark.parametrize("name", ["CPUTask", "NICProtocol", "TCP"])
    def test_restored_answers_equal_cold_complete(self, name):
        import json
        import random

        from repro.cache import SolveCache
        from repro.coverage.collector import CoverageCollector
        from repro.model.inputs import random_input
        from repro.model.simulator import Simulator
        from repro.models.registry import get_benchmark

        compiled = get_benchmark(name).build()
        branches = list(compiled.registry.branches)
        obligations = CoverageCollector(
            compiled.registry
        ).all_condition_obligations()
        rng = random.Random(4)
        simulator = Simulator(compiled, CoverageCollector(compiled.registry))
        cache = SolveCache(name)
        states = []
        for _ in range(6):
            state = simulator.get_state()
            states.append(state)
            encoding = cache.encoding(
                state.fingerprint(),
                lambda state=state: OneStepEncoding(compiled, state),
            )
            # Query a few targets only: the encoding stays partial.
            for branch in rng.sample(branches, 3):
                encoding.path_constraint(branch)
            for obligation in rng.sample(obligations, 3):
                encoding.obligation_constraint(obligation)
            simulator.step(random_input(compiled.inports, rng))
        payload = json.loads(json.dumps(cache.export_folds()))
        restored = SolveCache(name)
        counts = restored.restore_folds(payload, compiled)
        assert counts["encodings"] == len(cache.encodings)
        assert restored.encoding_entries == cache.encoding_entries

        for state in states:
            warm = restored.encoding(state.fingerprint(), None)
            cold = OneStepEncoding(compiled, state).complete()
            for branch in branches:
                assert warm.path_constraint(branch) == cold.path_constraint(
                    branch
                ), branch
            for obligation in obligations:
                assert warm.obligation_constraint(
                    obligation
                ) == cold.obligation_constraint(obligation), obligation
            assert warm._outcome_conditions == cold._outcome_conditions
            assert warm._condition_atoms == cold._condition_atoms
        assert restored.encoding_entries > cache.encoding_entries
