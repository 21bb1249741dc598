"""Generator-level transparency of the simulation kernel.

``Simulator(kernel=...)`` may only change how fast concrete steps run —
never what any tool produces.  Fixed-seed STCG runs must be bit-identical
with the kernel on or off, the baselines must be equally unaffected, and
symbolic execution (the SLDV unroller, STCG's encodings) never touches the
kernel.  "Off" patches each tool module's ``Simulator`` to ``kernel=False``.
"""

import pytest

import repro.core.stcg as stcg_module
from repro.baselines.simcotest import SimCoTestConfig, SimCoTestGenerator
from repro.baselines.sldv import SldvConfig, SldvGenerator
from repro.core import StcgConfig, StcgGenerator

from tests.conftest import build_counter_model, build_queue_model
from tests.core.test_stcg_cache import assert_identical


def force_interpreter(monkeypatch, module):
    """Make ``module``'s ``Simulator`` always run the reference interpreter."""
    original = module.Simulator
    monkeypatch.setattr(
        module,
        "Simulator",
        lambda *args, **kwargs: original(*args, **{**kwargs, "kernel": False}),
    )


@pytest.mark.parametrize("build", [build_counter_model, build_queue_model])
def test_stcg_bit_identical_kernel_on_vs_off(build, monkeypatch):
    config = StcgConfig(budget_s=10.0, seed=7)
    on = StcgGenerator(build(), config).run()
    force_interpreter(monkeypatch, stcg_module)
    generator = StcgGenerator(build(), config)
    off = generator.run()
    assert generator.simulator.kernel_stats() is None
    assert_identical(on, off)


def test_simcotest_replay_identical_kernel_on_vs_off(monkeypatch):
    import repro.baselines.simcotest as module

    def run(interpreter):
        if interpreter:
            force_interpreter(monkeypatch, module)
        result = SimCoTestGenerator(
            build_counter_model(), SimCoTestConfig(budget_s=5.0, seed=3)
        ).run()
        monkeypatch.undo()
        return result

    assert_identical(run(False), run(True))


def test_sldv_symbolic_path_untouched_by_kernel(monkeypatch):
    """SLDV's unroller is symbolic (interpreter-only by construction); the
    kernel only accelerates counterexample replay, so results must be
    identical either way."""
    import repro.baselines.sldv as module

    def run(interpreter):
        if interpreter:
            force_interpreter(monkeypatch, module)
        result = SldvGenerator(
            build_counter_model(), SldvConfig(budget_s=5.0, seed=3, max_depth=3)
        ).run()
        monkeypatch.undo()
        return result

    assert_identical(run(False), run(True))


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
        force_interpreter(monkeypatch, stcg_module)
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
