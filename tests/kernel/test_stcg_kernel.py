"""Generator-level transparency of the simulation kernel.

``Simulator(kernel=...)`` may only change how fast concrete steps run —
never what any tool produces.  Fixed-seed STCG runs must be bit-identical
with the kernel on or off, the baselines must be equally unaffected, and
symbolic execution (the SLDV unroller, STCG's encodings) never touches the
kernel.  "Off" patches each tool module's ``Simulator`` to ``kernel=False``;
SLDV replays on the interpreter, and "on" patches it to ``kernel=True``.
"""

import pytest

import repro.core.stcg as stcg_module
from repro.baselines.simcotest import SimCoTestConfig, SimCoTestGenerator
from repro.baselines.sldv import SldvConfig, SldvGenerator
from repro.core import StcgConfig, StcgGenerator

from tests.conftest import build_counter_model, build_queue_model
from tests.core.test_stcg_cache import assert_identical


def force_kernel(monkeypatch, module, kernel):
    """Make ``module``'s ``Simulator`` always run with ``kernel``: the
    generated step when True, the reference interpreter when False."""
    original = module.Simulator
    monkeypatch.setattr(
        module,
        "Simulator",
        lambda *args, **kwargs: original(*args, **{**kwargs, "kernel": kernel}),
    )


@pytest.mark.parametrize("build", [build_counter_model, build_queue_model])
def test_stcg_bit_identical_kernel_on_vs_off(build, monkeypatch):
    config = StcgConfig(budget_s=10.0, seed=7)
    on = StcgGenerator(build(), config).run()
    force_kernel(monkeypatch, stcg_module, False)
    generator = StcgGenerator(build(), config)
    off = generator.run()
    assert generator.simulator.kernel_stats() is None
    assert_identical(on, off)


def test_simcotest_replay_identical_kernel_on_vs_off(monkeypatch):
    import repro.baselines.simcotest as module

    def run(interpreter):
        if interpreter:
            force_kernel(monkeypatch, module, False)
        result = SimCoTestGenerator(
            build_counter_model(), SimCoTestConfig(budget_s=5.0, seed=3)
        ).run()
        monkeypatch.undo()
        return result

    assert_identical(run(False), run(True))


def test_sldv_replays_on_the_interpreter(monkeypatch):
    """SLDV replays a few dozen steps per model, too few to repay a
    generated step: a run never builds one, and its suite is the one a
    replay through the generated step gives."""
    import repro.baselines.sldv as module

    config = SldvConfig(budget_s=5.0, seed=3, max_depth=3)
    compiled = build_counter_model()
    interpreted = SldvGenerator(compiled, config).run()
    assert compiled.has_step_function is None

    force_kernel(monkeypatch, module, True)
    compiled = build_counter_model()
    generated = SldvGenerator(compiled, config).run()
    assert compiled.has_step_function is True
    assert_identical(interpreted, generated)


class TestKernelTraceData:
    def test_traced_run_reports_kernel_stats(self):
        result = StcgGenerator(
            build_counter_model(),
            StcgConfig(budget_s=5.0, seed=1, trace=True),
        ).run()
        kernel = result.trace_data["kernel"]
        assert kernel["enabled"] is True
        assert kernel["specialized_blocks"] > 0
        assert kernel["fallback_blocks"] == 0
        assert kernel["kernel_steps"] > 0

    def test_kernel_off_is_reported_as_disabled(self, monkeypatch):
        force_kernel(monkeypatch, stcg_module, False)
        result = StcgGenerator(
            build_counter_model(),
            StcgConfig(budget_s=5.0, seed=1, trace=True),
        ).run()
        assert result.trace_data["kernel"] == {"enabled": False}

    def test_untraced_run_has_no_trace_data(self):
        result = StcgGenerator(
            build_counter_model(), StcgConfig(budget_s=5.0, seed=1)
        ).run()
        assert result.trace_data == {}
