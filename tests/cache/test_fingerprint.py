"""Property tests for the state content fingerprint.

The fingerprint is the key of every solve cache, so three properties are
load-bearing: order independence, consistency with ``==`` (the cache must
partition states exactly like the existing signature-tuple sharing), and
stability across processes and ``PYTHONHASHSEED`` values (the digests in
telemetry and any future on-disk cache must mean the same thing
everywhere).
"""

import math
import numbers
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.fingerprint import fingerprint_value, state_fingerprint
from repro.model.state import ModelState

# Scalars a ModelState actually holds, plus the defensive extras.
scalars = st.one_of(
    st.booleans(),
    st.integers(-(2**63), 2**63),
    st.floats(allow_nan=False, width=64),
    st.text(max_size=20),
    st.none(),
)
values = st.one_of(scalars, st.tuples(scalars), st.lists(scalars, max_size=4))
state_dicts = st.dictionaries(st.text(min_size=1, max_size=30), values, max_size=8)


class TestOrderIndependence:
    @given(state_dicts)
    @settings(max_examples=200, deadline=None)
    def test_permutation_invariant(self, mapping):
        reordered = dict(reversed(list(mapping.items())))
        assert state_fingerprint(mapping) == state_fingerprint(reordered)

    def test_explicit_permutation(self):
        a = {"x": 1, "y": 2, "z": (3, 4)}
        b = {"z": (3, 4), "y": 2, "x": 1}
        assert state_fingerprint(a) == state_fingerprint(b)


class TestEqualityConsistency:
    """``==``-equal mappings must collide; ``!=`` ones must not."""

    @given(state_dicts, state_dicts)
    @settings(max_examples=200, deadline=None)
    def test_matches_python_equality(self, a, b):
        if a == b:
            assert state_fingerprint(a) == state_fingerprint(b)
        else:
            assert state_fingerprint(a) != state_fingerprint(b)

    def test_bool_int_float_collapse(self):
        # True == 1 == 1.0 in Python; signature-tuple sharing relies on it.
        assert fingerprint_value(True) == fingerprint_value(1) == fingerprint_value(1.0)
        assert fingerprint_value(0) == fingerprint_value(False)
        assert fingerprint_value(1) != fingerprint_value(2)
        assert fingerprint_value(1) != fingerprint_value("1")

    @given(state_dicts, st.text(min_size=1, max_size=30), values, values)
    @settings(max_examples=200, deadline=None)
    def test_single_value_change_changes_digest(self, mapping, key, old, new):
        if old == new:
            return
        with_old = {**mapping, key: old}
        with_new = {**mapping, key: new}
        assert state_fingerprint(with_old) != state_fingerprint(with_new)

    def test_key_set_matters(self):
        assert state_fingerprint({"a": 1}) != state_fingerprint({"b": 1})
        assert state_fingerprint({"a": 1}) != state_fingerprint({"a": 1, "b": 0})

    def test_structure_cannot_collide_by_concatenation(self):
        assert fingerprint_value(("ab", "c")) != fingerprint_value(("a", "bc"))
        assert fingerprint_value((1, (2, 3))) != fingerprint_value((1, 2, 3))

    def test_special_floats(self):
        assert fingerprint_value(math.nan) == fingerprint_value(math.nan)
        assert fingerprint_value(math.inf) != fingerprint_value(-math.inf)
        assert fingerprint_value(math.inf) != fingerprint_value(math.nan)
        assert fingerprint_value(0.5) == fingerprint_value(0.5)
        assert fingerprint_value(0.5) != fingerprint_value(0.25)

    def test_sets_are_order_independent(self):
        assert fingerprint_value({3, 1, 2}) == fingerprint_value({2, 3, 1})

    def test_numpy_values_fingerprint_by_content(self):
        """Values shaped like numpy's (scalar types registered with
        :mod:`numbers`, arrays with ``tolist()``) fingerprint as the plain
        values they equal; stand-ins keep this running without numpy."""

        class Int64:
            def __int__(self):
                return 7

        class Float32:
            def __float__(self):
                return 1.0

        class Array:
            def tolist(self):
                return [1, 2, 3]

        numbers.Integral.register(Int64)
        numbers.Real.register(Float32)
        assert fingerprint_value(Int64()) == fingerprint_value(7)
        assert fingerprint_value(Float32()) == fingerprint_value(1)
        assert fingerprint_value(Array()) == fingerprint_value([1, 2, 3])

    def test_unknown_types_raise(self):
        with pytest.raises(TypeError, match="cannot fingerprint"):
            fingerprint_value(object())


class TestStability:
    """Digests are pinned: changing the encoding invalidates every cache
    keyed on it, so a change here must be deliberate."""

    GOLDEN = {
        (): "df3f619804a92fdb4057192dc43dd748",
        (("x", 0),): "7f3f3ed3cda305fdcd1d4e3a1ad10ea1",
        (
            ("$store.q", (1, 2, 3)),
            ("chart.mode", "Idle"),
            ("n", 2.5),
        ): "f3393a71de9e70e51a628a80155af29f",
    }

    def test_golden_digests(self):
        for items, expected in self.GOLDEN.items():
            assert state_fingerprint(dict(items)) == expected

    def test_digest_shape(self):
        digest = state_fingerprint({"x": 1})
        assert len(digest) == 32
        int(digest, 16)  # pure hex

    def test_stable_across_hash_seeds(self):
        """The digest must not depend on ``PYTHONHASHSEED``.

        Python randomizes ``hash`` (and hence set/dict iteration details)
        per process; a fingerprint built on it would differ between the
        processes of a parallel matrix run.
        """
        program = (
            "from repro.cache.fingerprint import state_fingerprint\n"
            "print(state_fingerprint("
            "{'x': 1, 'name': 'Idle', 'q': (1, 2), 's': {'a', 'b', 'c'}}))"
        )
        digests = set()
        for hash_seed in ("0", "1", "31337"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = os.pathsep.join(
                filter(None, ["src", env.get("PYTHONPATH", "")])
            )
            output = subprocess.run(
                [sys.executable, "-c", program],
                capture_output=True,
                text=True,
                check=True,
                env=env,
                cwd=os.path.dirname(os.path.dirname(os.path.dirname(__file__))),
            ).stdout.strip()
            digests.add(output)
        assert len(digests) == 1


class TestModelStateIntegration:
    def test_fingerprint_cached_and_stable(self):
        state = ModelState({"x": 1, "y": (2, 3)})
        first = state.fingerprint()
        assert state.fingerprint() == first
        assert first == state_fingerprint({"y": (2, 3), "x": 1})

    def test_equal_states_share_fingerprint(self):
        a = ModelState({"x": 1, "y": 2})
        b = ModelState({"y": 2, "x": 1})
        assert a == b
        assert a.fingerprint() == b.fingerprint()

    def test_distinct_states_differ(self):
        assert ModelState({"x": 1}).fingerprint() != ModelState({"x": 2}).fingerprint()
