"""Tests for the error hierarchy and top-level package surface."""

import os
import subprocess
import sys

import pytest

import repro
from repro import errors


class TestErrorHierarchy:
    def test_all_derive_from_repro_error(self):
        for name in dir(errors):
            obj = getattr(errors, name)
            if isinstance(obj, type) and issubclass(obj, Exception):
                assert issubclass(obj, errors.ReproError) or obj is errors.ReproError

    def test_specific_parents(self):
        assert issubclass(errors.ExprTypeError, errors.ExprError)
        assert issubclass(errors.ExprParseError, errors.ExprError)
        assert issubclass(errors.EvalError, errors.ExprError)
        assert issubclass(errors.CompileError, errors.ModelError)
        assert issubclass(errors.StateError, errors.SimulationError)
        assert issubclass(errors.ChartError, errors.ModelError)

    def test_catchable_at_boundary(self):
        from repro.models import get_benchmark

        with pytest.raises(errors.ReproError):
            get_benchmark("no-such-model")


class TestPackageSurface:
    def test_version(self):
        assert repro.__version__

    def test_main_exports(self):
        assert callable(repro.StcgGenerator)
        assert callable(repro.ModelBuilder)
        assert callable(repro.Simulator)
        assert callable(repro.generate)

    def test_generate_convenience(self):
        from tests.conftest import build_counter_model

        result = repro.generate(
            build_counter_model(), repro.StcgConfig(budget_s=3, seed=0)
        )
        assert result.tool == "STCG"
        assert result.decision > 0.0

    def test_all_subpackages_importable(self):
        import repro.analysis
        import repro.baselines
        import repro.cli
        import repro.core
        import repro.coverage
        import repro.expr
        import repro.harness
        import repro.model
        import repro.models
        import repro.solver
        import repro.stateflow

    def test_runtime_does_not_import_numpy(self):
        """The runtime's only dependency is networkx: importing the public
        entry points in a fresh interpreter must not pull in numpy."""
        import repro.api

        src = os.path.dirname(os.path.dirname(repro.api.__file__))
        probe = (
            "import sys\n"
            "import repro.api, repro.cli, repro.core.stcg, repro.baselines.sldv\n"
            "print('numpy' in sys.modules)\n"
        )
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-c", probe],
            env=env, capture_output=True, text=True, check=True,
        )
        assert out.stdout.strip() == "False"

    def test_dunder_all_resolves(self):
        import repro.expr as expr_pkg

        for name in expr_pkg.__all__:
            assert hasattr(expr_pkg, name), name
