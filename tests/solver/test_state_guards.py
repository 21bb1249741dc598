"""Compiled state guards: sound, lazy, and invisible in what STCG produces.

A guard (``repro.solver.guards``) refutes a (state, target) pair before
encoding.  A false guard must mean the target's one-step constraint is
the constant ``false`` (soundness), taking the same ``const_false`` exit
the encoder's verdict takes, so fixed-seed runs are bit-identical with
guards on or patched to "undecided".  The step template behind them is
built on first use only.
"""

import hashlib
import random

import pytest

from repro.baselines.sldv import _IncrementalUnroll
from repro.core import StcgConfig, StcgGenerator
from repro.core.config import FuzzConfig, StoreConfig
from repro.coverage.collector import CoverageCollector
from repro.errors import EvalError
from repro.expr import ops as x
from repro.expr.ast import AND, BOOL, Binary, Var
from repro.expr.printer import to_string
from repro.expr.variables import substitute
from repro.fuzz.engine import FuzzGenerator, HybridGenerator
from repro.model.context import symbolic_context
from repro.model.executor import execute_step
from repro.model.inputs import random_input
from repro.model.simulator import Simulator
from repro.models.registry import BENCHMARKS, SIMPLE_CPUTASK, get_benchmark
from repro.solver.encoder import OneStepEncoding
from repro.solver.engine import SolverConfig
from repro.solver.guards import StateGuards, conjuncts

from tests.conftest import build_counter_model, build_queue_model

BUILDERS = {
    **{model.name: model.build for model in [*BENCHMARKS, SIMPLE_CPUTASK]},
    "counter": build_counter_model,
    "queue": build_queue_model,
}


class FakeClock:
    """A deterministic clock: every read advances one 1 ms tick."""

    def __init__(self):
        self.t = 0.0

    def __call__(self):
        self.t += 0.001
        return self.t


def reachable_states(compiled, steps=24, every=4, seed=5):
    simulator = Simulator(compiled, CoverageCollector(compiled.registry))
    rng = random.Random(seed)
    states = [simulator.get_state()]
    for step in range(steps):
        simulator.step(random_input(compiled.inports, rng))
        if step % every == every - 1:
            states.append(simulator.get_state())
    return states


def targets(compiled):
    obligations = CoverageCollector(
        compiled.registry
    ).all_condition_obligations()
    return [(("branch", b.branch_id), b) for b in compiled.registry.branches] + [
        (("obligation", o), o) for o in obligations
    ]


def constraint(encoding, key, target):
    if key[0] == "branch":
        return encoding.path_constraint(target)
    return encoding.obligation_constraint(target)


class TestSoundness:
    @pytest.mark.parametrize("name", BUILDERS)
    def test_false_guard_means_constant_false_constraint(self, name):
        compiled = BUILDERS[name]()
        guards = StateGuards(compiled)
        refuted = 0
        for state in reachable_states(compiled):
            encoding = OneStepEncoding(compiled, state).complete()
            for key, target in targets(compiled):
                if guards.refutes(key, state):
                    refuted += 1
                    assert constraint(encoding, key, target) == x.FALSE, key
        if name not in ("counter", "queue"):
            assert refuted > 0

    @pytest.mark.parametrize("name", BUILDERS)
    def test_specialized_template_equals_the_encoding(self, name):
        """The template, specialized to a state, records what one full
        symbolic step from that state records."""
        compiled = BUILDERS[name]()
        template = compiled.step_template()
        state = reachable_states(compiled)[-1]
        step = symbolic_context(
            {v.name: v for v in compiled.input_variables()}, state.values
        )
        execute_step(compiled, step)
        bindings = {p: x.lift(v) for p, v in state.values.items()}
        for decision_id, conditions in step.outcome_conditions.items():
            assert [
                substitute(c, bindings)
                for c in template.outcome_conditions[decision_id]
            ] == conditions
        for point_id, (atoms, context) in template.condition_atoms.items():
            recorded = step.condition_atoms.get(point_id)
            context = substitute(context, bindings)
            if recorded is None:
                assert context == x.FALSE
            else:
                assert [substitute(a, bindings) for a in atoms] == recorded[0]
                assert context == recorded[1]

    def test_guards_are_input_free_conjuncts(self):
        compiled = get_benchmark("NICProtocol").build()
        guards = StateGuards(compiled)
        inputs = compiled.step_template().input_names
        for key, _ in targets(compiled):
            for term in guards.terms(key):
                names = {
                    node.name for node in term.walk() if isinstance(node, Var)
                }
                assert not names & inputs, key

    def test_conjuncts_flattens_only_top_level_ands(self):
        p, q, r = (Var(name, BOOL) for name in "pqr")
        expr = Binary(AND, Binary(AND, p, q, BOOL), x.lor(q, r), BOOL)
        assert conjuncts(expr) == [p, q, x.lor(q, r)]
        assert conjuncts(p) == [p]
        assert conjuncts(x.TRUE) == [x.TRUE]

    def test_guard_errors_are_undecided(self, monkeypatch):
        compiled = get_benchmark("NICProtocol").build()
        guards = StateGuards(compiled)
        state = reachable_states(compiled)[0]
        key = next(
            key for key, _ in targets(compiled) if guards.refutes(key, state)
        )

        def raising(env):
            raise EvalError("boom")

        guards._guards[key] = raising
        assert guards.refutes(key, state) is False


def _undecided(monkeypatch):
    monkeypatch.setattr(StateGuards, "refutes", lambda self, key, state: False)


def _strip(metrics):
    """The metrics snapshot without timings and encoding-cache counters
    (guards exist to build fewer encodings)."""
    counters = {
        k: v for k, v in metrics["counters"].items()
        if not k.startswith("cache.encoding_")
    }
    gauges = {
        k: v for k, v in metrics["gauges"].items()
        if not k.endswith(".seconds")
    }
    return counters, gauges, metrics["histograms"]


def _config(**overrides):
    return StcgConfig(
        budget_s=1.0,
        seed=3,
        record_trace=True,
        solver=SolverConfig(time_budget_s=60.0),
        fuzz=FuzzConfig(executions=64),
        **overrides,
    )


def _run(tool, name, monkeypatch, undecided):
    with monkeypatch.context() as patch:
        if undecided:
            _undecided(patch)
        make = StcgGenerator if tool == "STCG" else HybridGenerator
        generator = make(get_benchmark(name).build(), _config(), FakeClock())
        result = generator.run()
    host = generator if tool == "STCG" else generator._host
    return result, host


@pytest.mark.parametrize("tool", ["STCG", "Hybrid"])
@pytest.mark.parametrize("name", ["CPUTask", "NICProtocol", "TWC"])
def test_bit_identical_with_guards_vs_undecided(tool, name, monkeypatch):
    guarded, host = _run(tool, name, monkeypatch, undecided=False)
    plain, plain_host = _run(tool, name, monkeypatch, undecided=True)
    assert [c.inputs for c in guarded.suite] == [c.inputs for c in plain.suite]
    assert [c.origin for c in guarded.suite] == [c.origin for c in plain.suite]
    assert guarded.stats == plain.stats
    assert _strip(guarded.metrics) == _strip(plain.metrics)
    assert [vars(e) for e in host.trace] == [vars(e) for e in plain_host.trace]
    assert guarded.provenance == plain.provenance
    assert guarded.stats["const_false_skips"] > 0

    def lookups(result):
        counters = result.metrics["counters"]
        return counters["cache.encoding_hits"] + counters["cache.encoding_misses"]

    # Every refuted pair skips the encoding lookup: the guards fired.
    assert lookups(guarded) < lookups(plain)


def test_skip_constant_false_off_never_consults_a_guard(monkeypatch):
    def forbidden(self, key, state):
        raise AssertionError("guard consulted with skip_constant_false off")

    monkeypatch.setattr(StateGuards, "refutes", forbidden)
    generator = StcgGenerator(
        get_benchmark("NICProtocol").build(),
        _config(skip_constant_false=False),
        FakeClock(),
    )
    result = generator.run()
    assert result.stats["solver_calls"] > 0
    assert result.stats["const_false_skips"] == 0


@pytest.mark.parametrize("name", ["CPUTask", "NICProtocol"])
def test_warm_rerun_guards_refute_nothing(name, tmp_path, monkeypatch):
    """The run that filled the store marked every constant-false pair
    dead, so a warm rerun verdict-skips all of them before any guard is
    asked: the guards it does consult never refute."""
    config = _config(store=StoreConfig(path=str(tmp_path)))
    cold = StcgGenerator(get_benchmark(name).build(), config, FakeClock()).run()
    assert cold.stats["const_false_skips"] > 0

    refutes = StateGuards.refutes
    answers = []

    def spy(self, key, state):
        answers.append(refutes(self, key, state))
        return answers[-1]

    monkeypatch.setattr(StateGuards, "refutes", spy)
    warm = StcgGenerator(get_benchmark(name).build(), config, FakeClock()).run()
    assert warm.stats["store_hits"] == 1
    assert answers and True not in answers
    assert warm.stats["const_false_skips"] == 0
    assert [c.inputs for c in warm.suite] == [c.inputs for c in cold.suite]
    assert [c.origin for c in warm.suite] == [c.origin for c in cold.suite]


@pytest.mark.parametrize("make", [StcgGenerator, FuzzGenerator])
def test_building_a_generator_does_not_build_the_template(make):
    compiled = get_benchmark("CPUTask").build()
    make(compiled, StcgConfig(budget_s=1.0, seed=0))
    assert compiled._step_template is None


def test_fuzz_run_builds_the_template_once_on_its_first_step(monkeypatch):
    """The generated concrete step is rendered from the template, so a
    Fuzz run builds the template exactly once, during its first step."""
    import repro.model.context as context_module

    compiled = get_benchmark("AFC").build()
    generator = FuzzGenerator(compiled, _config(), FakeClock())
    simulator = generator._host.simulator
    steps_at_build = []

    def spy(*args, **kwargs):
        steps_at_build.append(simulator.kernel_stats()["kernel_steps"])
        return symbolic_context(*args, **kwargs)

    monkeypatch.setattr(context_module, "symbolic_context", spy)
    assert compiled._step_template is None
    generator.run()
    assert steps_at_build == [0]
    assert compiled._step_template is not None
    assert simulator.kernel_stats()["kernel_steps"] > 0


def test_template_is_built_once_per_model():
    compiled = get_benchmark("CPUTask").build()
    assert compiled.step_template() is compiled.step_template()


class TestTemplateOnlyChartAtoms:
    """The SLDV-like unroll composes the template, in which charts record
    atoms under a symbolic location; its outcome conditions must print
    exactly as when each step was executed without chart atoms."""

    #: SHA-256 prefixes of the depth-3 unrolled outcome conditions, as
    #: printed by step-by-step execution.
    UNROLLED_DIGESTS = {
        "NICProtocol": "11a4f12a536668e1",
        "TCP": "1fc1a68622af1063",
    }

    @pytest.mark.parametrize("name", UNROLLED_DIGESTS)
    def test_unrolled_conditions_unchanged(self, name):
        unroll = _IncrementalUnroll(get_benchmark(name).build())
        for _ in range(3):
            unroll.extend()
        blob = repr([
            sorted(
                (decision_id, [to_string(c) for c in conditions])
                for decision_id, conditions in step.items()
            )
            for step in unroll.step_conditions
        ])
        digest = hashlib.sha256(blob.encode()).hexdigest()[:16]
        assert digest == self.UNROLLED_DIGESTS[name]


def test_traced_run_times_the_encoder():
    result = StcgGenerator(
        get_benchmark("CPUTask").build(),
        StcgConfig(budget_s=3.0, seed=0, trace=True),
        FakeClock(),
    ).run()
    phases = result.trace_data["phase_totals"]
    assert 0.0 < phases["encode"]["seconds"] < phases["solve_scan"]["seconds"]
