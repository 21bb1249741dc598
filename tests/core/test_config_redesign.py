"""The STCG config surface: removed switches and typed sub-configs.

Pins the removal contract: the pre-redesign flat constructor keywords
(``sim_kernel``, ``encoding_cache_size``, ``verdict_cache``,
``tree_dedup``), the kernel and cache sub-configs and the boolean alias
of ``fresh_input_mix=1.0`` are gone — passing one is an ordinary
``TypeError``, and none exists as a read-back attribute.  The surviving
sub-configs (``fuzz=``, ``store=``) are warning-free, typed and
round-trip through :func:`dataclasses.replace`.
"""

import warnings
from dataclasses import replace

import pytest

from repro import api
from repro.core.config import FuzzConfig, StcgConfig, StoreConfig
from repro.errors import ConfigError, HarnessError

from tests.conftest import build_counter_model


class TestRemovedAliases:
    @pytest.mark.parametrize(
        "alias, value",
        [
            ("sim_kernel", False),
            ("encoding_cache_size", 7),
            ("verdict_cache", False),
            ("tree_dedup", False),
            ("fresh_random_inputs", True),
            ("kernels", {"sim": False}),
            ("caches", {"verdicts": False}),
        ],
    )
    def test_flat_keyword_is_an_ordinary_type_error(self, alias, value):
        with pytest.raises(TypeError, match=alias):
            StcgConfig(**{alias: value})

    @pytest.mark.parametrize(
        "alias",
        [
            "sim_kernel",
            "encoding_cache_size",
            "verdict_cache",
            "tree_dedup",
            "fresh_random_inputs",
            "kernels",
            "caches",
        ],
    )
    def test_flat_read_back_property_is_gone(self, alias):
        config = StcgConfig()
        assert not hasattr(config, alias)


class TestNewStyleSurface:
    def test_new_style_construction_is_warning_free(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            config = StcgConfig(
                fuzz=FuzzConfig(executions=9, seed_sequences=4),
                store=StoreConfig(path="warm", read=False),
            )
        assert config.fuzz.executions == 9
        assert config.fuzz.seed_sequences == 4
        assert config.store.read is False

    def test_round_trips_through_dataclasses_replace(self):
        config = StcgConfig(budget_s=2.0, seed=5)
        flipped = replace(
            config, fuzz=replace(config.fuzz, executions=9)
        )
        assert flipped.fuzz == FuzzConfig(executions=9)
        assert flipped.budget_s == 2.0 and flipped.seed == 5
        assert config.fuzz.executions == 512  # original untouched

    def test_sub_configs_must_be_typed(self):
        with pytest.raises(ConfigError, match="FuzzConfig"):
            StcgConfig(fuzz={"executions": 9})
        with pytest.raises(ConfigError, match="StoreConfig"):
            StcgConfig(store={"path": "warm"})


class TestApiOverrides:
    def test_stcg_overrides_reach_the_generator(self):
        result = api.generate(
            build_counter_model(),
            budget_s=2.0,
            seed=3,
            stcg_overrides={"random_warmup_s": 0.5},
        )
        baseline = api.generate(build_counter_model(), budget_s=2.0, seed=3)
        assert baseline.stats["warmup_steps"] == 0
        assert result.stats["warmup_steps"] > 0

    def test_stcg_overrides_exclusive_with_config(self):
        with pytest.raises(HarnessError, match="not both"):
            api.generate(
                build_counter_model(),
                config=StcgConfig(budget_s=1.0),
                stcg_overrides={"skip_constant_false": False},
            )

    def test_stcg_overrides_rejected_for_other_tools(self):
        with pytest.raises(HarnessError, match="STCG/Fuzz/Hybrid only"):
            api.generate(
                build_counter_model(),
                tool="SLDV",
                budget_s=1.0,
                stcg_overrides={"skip_constant_false": False},
            )
