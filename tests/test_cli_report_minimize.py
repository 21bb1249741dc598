"""Tests for the CLI, the coverage report renderer and suite minimization."""

import pytest

from repro.cli import main
from repro.core import StcgConfig, StcgGenerator
from repro.core.minimize import goals_of_case, minimize_suite
from repro.coverage.report import (
    decision_report,
    full_report,
    mcdc_report,
    uncovered_report,
)

from tests.conftest import build_queue_model


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "CPUTask" in out and "TCP" in out

    def test_info(self, capsys):
        assert main(["info", "LEDLC"]) == 0
        out = capsys.readouterr().out
        assert "dead branches" in out
        assert "$store.mode" in out

    def test_info_unknown_model(self, capsys):
        assert main(["info", "bogus"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_table2(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "#Branch(paper)" in out

    def test_generate_with_all_flags(self, capsys, tmp_path):
        out_file = tmp_path / "suite.txt"
        code = main(
            [
                "generate", "AFC", "--tool", "STCG", "--budget", "3",
                "--seed", "1", "--out", str(out_file), "--minimize",
                "--report",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "STCG on AFC" in out
        assert "minimized:" in out
        assert "== summary ==" in out
        assert out_file.exists()
        assert "test suite for AFC" in out_file.read_text()

    def test_table1(self, capsys):
        assert main(["table1", "--budget", "5"]) == 0
        assert "B1" in capsys.readouterr().out

    def test_fig3(self, capsys):
        assert main(["fig3", "--budget", "5"]) == 0
        assert "state tree" in capsys.readouterr().out

    def test_ablation(self, capsys):
        assert main(["ablation", "hybrid", "AFC", "--budget", "2"]) == 0
        assert "random-warmup" in capsys.readouterr().out


class TestReports:
    @pytest.fixture
    def collector(self):
        compiled = build_queue_model()
        generator = StcgGenerator(compiled, StcgConfig(budget_s=5, seed=0))
        generator.run()
        return generator.collector

    def test_decision_report_marks(self, collector):
        text = decision_report(collector)
        assert "[x]" in text

    def test_uncovered_report_all_covered(self, collector):
        assert uncovered_report(collector) == "all branches covered"

    def test_uncovered_report_with_dead_annotation(self):
        from repro.coverage import CoverageCollector

        compiled = build_queue_model()
        empty = CoverageCollector(compiled.registry)  # nothing covered yet
        label = empty.uncovered_branches()[0].label
        text = uncovered_report(empty, known_dead=[label])
        assert "documented dead logic" in text

    def test_mcdc_report(self, collector):
        text = mcdc_report(collector)
        assert "atoms" in text

    def test_full_report_sections(self, collector):
        text = full_report(collector)
        for section in ("== summary ==", "== decisions ==", "== mcdc =="):
            assert section in text


class TestMinimize:
    def run_generation(self):
        compiled = build_queue_model()
        generator = StcgGenerator(compiled, StcgConfig(budget_s=8, seed=0))
        result = generator.run()
        return compiled, result

    def test_goals_of_case_nonempty(self):
        compiled, result = self.run_generation()
        goals = goals_of_case(build_queue_model(), result.suite.cases[0])
        assert goals

    def test_minimization_preserves_coverage(self):
        compiled, result = self.run_generation()
        reduced = minimize_suite(build_queue_model(), result.suite)
        original = result.suite.replay(build_queue_model())
        replayed = reduced.suite.replay(build_queue_model())
        assert replayed.decision_coverage() == original.decision_coverage()
        assert replayed.condition_coverage() == original.condition_coverage()
        assert replayed.mcdc_coverage() == original.mcdc_coverage()

    def test_minimization_never_grows(self):
        compiled, result = self.run_generation()
        reduced = minimize_suite(build_queue_model(), result.suite)
        assert reduced.kept_cases <= reduced.original_cases
        assert 0.0 <= reduced.reduction <= 1.0

    def test_empty_suite(self):
        from repro.core.testcase import TestSuite

        reduced = minimize_suite(build_queue_model(), TestSuite("Queue", ["op", "key"]))
        assert reduced.kept_cases == 0
        assert reduced.reduction == 0.0
