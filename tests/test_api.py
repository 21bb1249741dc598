"""Tests for the stable ``repro.api`` facade and config validation."""

import json

import pytest

from repro import api
from repro.core.config import StcgConfig
from repro.errors import CellTimeout, ConfigError, ReproError
from repro.harness.runner import MatrixConfig
from repro.models.registry import BenchmarkModel
from repro.solver.engine import SolverConfig

from tests.conftest import build_counter_model, build_sleepy_model

TINY = BenchmarkModel("Tiny", "counter fixture", build_counter_model, 0, 0)
SLEEPY = BenchmarkModel("Sleepy", "hang injection", build_sleepy_model, 0, 0)


class TestGenerate:
    def test_accepts_benchmark_entry(self):
        result = api.generate(TINY, tool="STCG", budget_s=2.0, seed=0)
        assert result.tool == "STCG"
        # model_name reflects the compiled model, not the registry label
        assert result.model_name == "Counter"

    def test_accepts_benchmark_name(self):
        result = api.generate("AFC", tool="SimCoTest", budget_s=1.0, seed=0)
        assert result.tool == "SimCoTest"
        assert result.model_name == "AFC"

    def test_accepts_compiled_model(self):
        compiled = build_counter_model()
        result = api.generate(compiled, budget_s=2.0, seed=0)
        assert result.model_name == compiled.name
        assert result.decision > 0.0

    def test_keyword_only(self):
        with pytest.raises(TypeError):
            api.generate(TINY, "STCG")  # tool must be keyword

    def test_unknown_tool(self):
        with pytest.raises(ReproError, match="unknown tool"):
            api.generate(TINY, tool="MagicTool", budget_s=1.0)

    def test_bad_budget(self):
        with pytest.raises(ReproError):
            api.generate(TINY, budget_s=-1.0)

    def test_bad_model_type(self):
        with pytest.raises(ReproError):
            api.generate(42, budget_s=1.0)

    def test_config_only_for_stcg(self):
        config = StcgConfig(budget_s=1.0, seed=0)
        with pytest.raises(ReproError, match="STCG/Fuzz/Hybrid only"):
            api.generate(TINY, tool="SLDV", config=config)

    def test_config_overrides(self):
        config = StcgConfig(budget_s=2.0, seed=5, random_batch=1)
        result = api.generate(TINY, config=config)
        assert result.tool == "STCG"

    def test_cell_timeout_raises(self):
        with pytest.raises(CellTimeout):
            api.generate(SLEEPY, budget_s=10.0, cell_timeout=0.4)

    def test_events_out_writes_stream_and_manifest(self, tmp_path):
        path = tmp_path / "gen.jsonl"
        result = api.generate(TINY, budget_s=2.0, seed=0,
                              events_out=str(path))
        events = api.read_events(str(path))
        kinds = [e["event"] for e in events]
        assert "run_started" in kinds and "run_finished" in kinds
        manifest = json.loads((tmp_path / "gen.manifest.json").read_text())
        assert manifest["ok"] == 1
        assert manifest["coverage"]["Tiny"]["STCG"]["decision"] == \
            result.decision


class TestRunExperiment:
    def test_structure_and_workers_equivalence(self):
        kwargs = dict(models=[TINY], budget_s=4.0, repetitions=2, seed=1)
        serial = api.run_experiment(workers=1, **kwargs)
        parallel = api.run_experiment(workers=2, **kwargs)
        assert set(serial.outcomes) == {"Tiny"}
        assert set(serial.outcomes["Tiny"]) == set(api.TOOLS)
        for tool in api.TOOLS:
            assert serial.outcomes["Tiny"][tool].decision == \
                parallel.outcomes["Tiny"][tool].decision

    def test_accepts_model_names(self):
        result = api.run_experiment(
            models=["AFC"], tools=("SimCoTest",), budget_s=1.0, repetitions=1
        )
        assert set(result.outcomes) == {"AFC"}

    def test_keyword_only(self):
        with pytest.raises(TypeError):
            api.run_experiment([TINY], ("STCG",))

    def test_validation_errors(self):
        with pytest.raises(ReproError):
            api.run_experiment(models=[TINY], repetitions=0)
        with pytest.raises(ReproError):
            api.run_experiment(models=[TINY], budget_s=0.0)
        with pytest.raises(ReproError):
            api.run_experiment(models=[TINY], workers=0)
        with pytest.raises(ReproError, match="unknown tool"):
            api.run_experiment(models=[TINY], tools=("Nope",))
        with pytest.raises(ReproError, match="at least one model"):
            api.run_experiment(models=[])

    def test_events_out_writes_stream_and_manifest(self, tmp_path):
        path = tmp_path / "matrix.jsonl"
        result = api.run_experiment(
            models=[TINY], tools=("STCG",), budget_s=2.0, repetitions=1,
            events_out=str(path),
        )
        events = api.read_events(str(path))
        assert events[-1]["event"] == "matrix_finished"
        manifest = json.loads(
            (tmp_path / "matrix.manifest.json").read_text()
        )
        assert manifest["cells"] == result.cells_total
        assert manifest["failed"] == 0

    def test_list_models(self):
        names = api.list_models()
        assert "CPUTask" in names and "TCP" in names


class TestConfigValidation:
    def test_stcg_config_keyword_only(self):
        with pytest.raises(TypeError):
            StcgConfig(5.0)

    @pytest.mark.parametrize("kwargs", [
        {"budget_s": -1.0},
        {"budget_s": 0.0},
        {"random_sequence_length": 0},
        {"random_batch": 0},
        {"max_tree_nodes": 0},
        {"failure_backoff_after": 0},
        {"random_warmup_s": -0.5},
        {"fresh_input_mix": 1.5},
        {"seed": "zero"},
    ])
    def test_stcg_config_rejects_nonsense(self, kwargs):
        with pytest.raises(ConfigError):
            StcgConfig(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        {"max_samples": -3},
        {"avm_evaluations": -1},
        {"time_budget_s": -1.0},
        {"time_budget_s": 0.0},
    ])
    def test_solver_config_rejects_nonsense(self, kwargs):
        with pytest.raises(ConfigError):
            SolverConfig(**kwargs)

    def test_matrix_config_keyword_only(self):
        with pytest.raises(TypeError):
            MatrixConfig(5.0)

    @pytest.mark.parametrize("kwargs", [
        {"budget_s": 0.0},
        {"repetitions": 0},
        {"sldv_repetitions": 0},
        {"sldv_max_depth": 0},
        {"seed": 1.5},
    ])
    def test_matrix_config_rejects_nonsense(self, kwargs):
        with pytest.raises(ConfigError):
            MatrixConfig(**kwargs)

    def test_config_error_is_repro_error(self):
        assert issubclass(ConfigError, ReproError)
        assert issubclass(CellTimeout, ReproError)


class TestCliFlags:
    def test_table3_through_executor(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "t3.jsonl"
        code = main([
            "table3", "--budget", "1", "--reps", "1",
            "--models", "AFC", "--workers", "2",
            "--events-out", str(path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "AFC" in out and "STCG" in out
        assert path.exists()
        assert (tmp_path / "t3.manifest.json").exists()

    def test_generate_with_events(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "gen.jsonl"
        code = main([
            "generate", "AFC", "--tool", "SimCoTest", "--budget", "1",
            "--events-out", str(path),
        ])
        assert code == 0
        assert "SimCoTest on AFC" in capsys.readouterr().out
        kinds = [e["event"] for e in api.read_events(str(path))]
        assert "run_finished" in kinds
