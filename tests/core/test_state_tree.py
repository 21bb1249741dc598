"""Tests for the state tree, input library and test-case containers."""

import random

import pytest

from repro.core.input_library import InputLibrary
from repro.core.state_tree import StateTree
from repro.core.testcase import TestCase, TestSuite, parse_suite_text
from repro.model.state import ModelState


def state(**values):
    return ModelState(values)


class TestStateTree:
    def test_root_only(self):
        tree = StateTree(state(x=0))
        assert len(tree) == 1
        assert tree.root.parent is None
        assert tree.root.input is None

    def test_add_child(self):
        tree = StateTree(state(x=0))
        child = tree.add_child(tree.root, state(x=1), {"u": 5})
        assert child.parent is tree.root
        assert child in tree.root.children
        assert len(tree) == 2
        assert child.depth() == 1

    def test_path_inputs(self):
        tree = StateTree(state(x=0))
        a = tree.add_child(tree.root, state(x=1), {"u": 1})
        b = tree.add_child(a, state(x=2), {"u": 2})
        assert b.path_inputs() == [{"u": 1}, {"u": 2}]
        assert tree.root.path_inputs() == []

    def test_different_states_do_not_share(self):
        tree = StateTree(state(x=0))
        a = tree.add_child(tree.root, state(x=5), {"u": 1})
        b = tree.add_child(tree.root, state(x=6), {"u": 2})
        assert tree.solve_nodes() == [tree.root, a, b]
        assert tree.dedup_links == 0
        assert tree.unique_states() == 3

    def test_encoding_shared_by_fingerprint(self):
        """Equal states hit the same SolveCache encoding slot."""
        from repro.cache import SolveCache

        tree = StateTree(state(x=0))
        a = tree.add_child(tree.root, state(x=5), {"u": 1})
        b = tree.add_child(tree.root, state(x=5), {"u": 2})
        cache = SolveCache("M")
        calls = []

        def factory():
            calls.append(1)
            return object()

        enc_a = cache.encoding(a.state.fingerprint(), factory)
        enc_b = cache.encoding(b.state.fingerprint(), factory)
        assert enc_a is enc_b
        assert len(calls) == 1
        assert cache.stats()["encoding_hits"] == 1

    def test_duplicate_states_dedup_solve_scan(self):
        tree = StateTree(state(x=0))
        a = tree.add_child(tree.root, state(x=5), {"u": 1})
        b = tree.add_child(tree.root, state(x=5), {"u": 2})
        assert tree.dedup_links == 1
        assert tree.unique_states() == 2  # root + x=5
        assert tree.solve_nodes() == [tree.root, a]
        # Duplicates stay real tree nodes: paths and random picks see them.
        assert len(tree) == 3
        assert b.path_inputs() == [{"u": 2}]

    def test_random_node(self):
        tree = StateTree(state(x=0))
        for i in range(5):
            tree.add_child(tree.root, state(x=i + 1), {"u": i})
        rng = random.Random(0)
        seen = {tree.random_node(rng).node_id for _ in range(50)}
        assert len(seen) > 3

    def test_render(self):
        tree = StateTree(state(x=0))
        child = tree.add_child(tree.root, state(x=1), {"u": 1})
        child.covered_branches = {2}
        text = tree.render()
        assert "S0" in text
        assert "S1" in text
        assert "covers=[2]" in text

    def test_render_truncates(self):
        tree = StateTree(state(x=0))
        for i in range(30):
            tree.add_child(tree.root, state(x=i + 1), {"u": i})
        text = tree.render(max_nodes=5)
        assert "more nodes" in text


class TestInputLibrary:
    def test_add_and_draw(self):
        library = InputLibrary()
        assert library.is_empty
        assert library.add({"u": 1})
        assert len(library) == 1
        assert library.random_input(random.Random(0)) == {"u": 1}

    def test_duplicates_rejected(self):
        library = InputLibrary()
        assert library.add({"u": 1})
        assert not library.add({"u": 1})
        assert len(library) == 1

    def test_draws_are_copies(self):
        library = InputLibrary()
        library.add({"u": 1})
        drawn = library.random_input(random.Random(0))
        drawn["u"] = 999
        assert library.random_input(random.Random(0)) == {"u": 1}

    def test_random_sequence_length(self):
        library = InputLibrary()
        library.add({"u": 1})
        library.add({"u": 2})
        seq = library.random_sequence(random.Random(0), 7)
        assert len(seq) == 7

    def test_empty_draw_raises(self):
        with pytest.raises(IndexError):
            InputLibrary().random_input(random.Random(0))


class TestTestCases:
    def test_text_export_shape(self):
        case = TestCase(
            inputs=[{"a": 1, "b": True}, {"a": 2, "b": False}],
            origin="solver",
        )
        text = case.to_text(["a", "b"])
        lines = text.splitlines()
        assert lines[0] == "step\ta\tb"
        assert lines[1] == "0\t1\t1"
        assert lines[2] == "1\t2\t0"

    def test_suite_export_and_parse_round_trip(self):
        suite = TestSuite("M", ["a"])
        suite.add(TestCase(inputs=[{"a": 1}, {"a": 2}]))
        suite.add(TestCase(inputs=[{"a": 3}], origin="random"))
        text = suite.to_text()
        parsed = parse_suite_text(text)
        assert len(parsed) == 2
        assert parsed[0] == [{"a": "1"}, {"a": "2"}]
        assert parsed[1] == [{"a": "3"}]

    def test_suite_totals(self):
        suite = TestSuite("M", ["a"])
        suite.add(TestCase(inputs=[{"a": 1}, {"a": 2}]))
        suite.add(TestCase(inputs=[{"a": 3}]))
        assert len(suite) == 2
        assert suite.total_steps() == 3

    def test_replay_reproduces_coverage(self, counter_model):
        from repro.core import StcgConfig, StcgGenerator

        generator = StcgGenerator(counter_model, StcgConfig(budget_s=5, seed=0))
        result = generator.run()
        from tests.conftest import build_counter_model

        replayed = result.suite.replay(build_counter_model())
        assert (
            replayed.decision_coverage()
            == generator.collector.decision_coverage()
        )

    def test_float_formatting(self):
        case = TestCase(inputs=[{"r": 0.123456789}])
        assert "0.123457" in case.to_text(["r"])
