"""The repro.api facade: typed results, defaulting rules, delegation."""

import json

import pytest

from repro import SimStats, api
from repro.common.config import SystemConfig
from repro.common.errors import ConfigError
from repro.processor.program import LockStyle


class TestSimulate:
    def test_negative_sample_interval_is_a_config_error(self):
        with pytest.raises(ConfigError, match="sample_interval"):
            api.simulate(processors=2, sample_interval=-5)

    def test_returns_typed_result(self):
        result = api.simulate(processors=2)
        assert isinstance(result, api.RunResult)
        assert isinstance(result.stats, SimStats)
        assert isinstance(result.config, SystemConfig)
        assert result.obs is None
        assert result.stats.cycles > 0

    def test_protocol_defaults_applied(self):
        result = api.simulate("rudolph-segall", processors=2)
        assert result.config.cache.words_per_block == 1
        result = api.simulate("write-through", processors=2)
        assert result.config.strict_verify is False

    def test_explicit_config_wins(self):
        config = SystemConfig(num_processors=2, protocol="illinois")
        result = api.simulate(config=config)
        assert result.config is config
        assert result.protocol == "illinois"

    def test_observed_run_attaches_obs(self):
        result = api.simulate(processors=2, sample_interval=10)
        assert result.obs is not None
        assert result.obs.samples

    def test_matches_run_workload(self):
        """The facade is a veneer: same stats as the lower-level API."""
        from repro import run_workload
        from repro.workloads.registry import build_workload

        result = api.simulate(processors=2)
        programs = build_workload("lock-contention", result.config)
        baseline = run_workload(result.config, programs)
        assert result.stats.to_payload() == baseline.to_payload()

    def test_unknown_workload_named(self):
        with pytest.raises(KeyError, match="nope"):
            api.simulate(workload="nope")

    def test_to_dict_serializes(self):
        data = api.simulate(processors=2, sample_interval=25).to_dict()
        json.dumps(data)
        assert data["kind"] == "run-result"
        assert data["config"]["num_processors"] == 2


class TestSweep:
    def test_negative_sample_interval_raises_before_any_point(
            self, monkeypatch):
        ran = []
        monkeypatch.setattr(api, "_sweep_point",
                            lambda n, **kwargs: ran.append(n))
        with pytest.raises(ConfigError, match="sample_interval"):
            api.sweep(processors=[2, 3], sample_interval=-5)
        assert ran == []

    def test_series_and_stats(self):
        result = api.sweep(processors=[2, 3])
        assert isinstance(result, api.SweepResult)
        assert result.xs == [2, 3]
        assert len(result.series["cycles"]) == 2
        assert len(result.stats) == 2
        assert all(isinstance(s, SimStats) for s in result.stats)

    def test_to_dict_serializes(self):
        data = api.sweep(processors=[2]).to_dict()
        json.dumps(data)
        assert data["kind"] == "sweep-result"
        assert len(data["points"]) == 1


class TestConform:
    def test_clean_protocol(self):
        report = api.conform("bitar-despain")
        assert report.ok and report.findings == []
        assert report.serializing is True

    def test_write_through_defaults_non_serializing(self):
        assert api.conform("write-through").serializing is False


class TestCheckDelegation:
    def test_returns_mc_report(self):
        from repro.mc import CheckReport

        report = api.check(["illinois"], scenarios=["tas-race"],
                           fuzz_seeds=2)
        assert isinstance(report, CheckReport)
        assert report.ok


class TestLazyExport:
    def test_repro_api_attribute(self):
        import repro

        assert repro.api is api

    def test_workloads_registry_shared(self):
        from repro.cli import WORKLOADS as cli_workloads

        assert cli_workloads is api.WORKLOADS

    def test_lock_style_override(self):
        result = api.simulate("illinois", processors=2,
                              lock_style=LockStyle.TAS)
        assert result.stats.cycles > 0
