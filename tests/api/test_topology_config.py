"""The TopologyConfig API redesign: typed fabric geometry on
SystemConfig (the removed ``num_buses`` alias is rejected), the fabric
registry, and the topology stamp on result payloads."""

import dataclasses
import warnings

import pytest

from repro import api
from repro.common.config import (TOPOLOGY_KINDS, SystemConfig,
                                 TopologyConfig)
from repro.common.errors import ConfigError
from tests.conftest import child_env


class TestTopologyConfig:
    def test_defaults_to_snoop(self):
        topo = TopologyConfig()
        assert topo.kind == "snoop"
        assert topo.num_buses == 1

    def test_round_trip_every_kind(self):
        for topo in (
            TopologyConfig(),
            TopologyConfig(kind="multibus", buses=3),
            TopologyConfig(kind="clustered", clusters=4,
                           buses_per_cluster=2,
                           inter_cluster_hop_cycles=5),
            TopologyConfig(kind="directory", directory_banks=8,
                           directory_lookup_cycles=3),
        ):
            assert TopologyConfig.from_dict(topo.to_dict()) == topo

    def test_num_buses_property(self):
        assert TopologyConfig(kind="multibus", buses=3).num_buses == 3
        assert TopologyConfig(kind="clustered", clusters=4,
                              buses_per_cluster=2).num_buses == 8
        assert TopologyConfig(kind="directory",
                              directory_banks=5).num_buses == 5

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError, match="unknown topology kind"):
            TopologyConfig(kind="mesh")

    def test_nonpositive_geometry_rejected(self):
        with pytest.raises(ConfigError, match="clusters must be positive"):
            TopologyConfig(kind="clustered", clusters=0)

    def test_snoop_is_single_bus(self):
        with pytest.raises(ConfigError, match="exactly one bus"):
            TopologyConfig(kind="snoop", buses=2)


class TestSystemConfigIntegration:
    def test_default_system_config_is_snoop(self):
        config = SystemConfig()
        assert config.topology == TopologyConfig()
        assert config.topology.num_buses == 1

    def test_conflicting_alias_rejected(self):
        with pytest.raises(TypeError, match="num_buses"):
            SystemConfig(num_buses=3, topology=TopologyConfig())

    def test_legacy_payload_with_num_buses_rejected(self):
        payload = {"num_processors": 4, "num_buses": 2}
        with pytest.raises(ConfigError, match="num_buses"):
            SystemConfig.from_dict(payload)

    def test_to_dict_omits_the_alias(self):
        payload = SystemConfig(topology=TopologyConfig(kind="directory",
                                                       directory_banks=2)
                               ).to_dict()
        assert "num_buses" not in payload
        assert payload["topology"]["kind"] == "directory"

    def test_round_trip_does_not_warn(self):
        config = SystemConfig(
            topology=TopologyConfig(kind="clustered", clusters=2))
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            rebuilt = SystemConfig.from_dict(config.to_dict())
        assert rebuilt == config

    def test_kind_string_rejected(self):
        with pytest.raises(ConfigError, match="topology must be a "
                                              "TopologyConfig"):
            SystemConfig(topology="directory")
        with pytest.raises(ConfigError, match="'directory'"):
            api.simulate("bitar-despain", "sharing", processors=2,
                         topology="directory")

    def test_replace_topology(self):
        # replace() re-passes every field; it must neither warn nor
        # conflict with the topology it swaps in.
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            config = dataclasses.replace(
                SystemConfig(),
                topology=TopologyConfig(kind="multibus", buses=3))
        assert config.topology.num_buses == 3


class TestFabricRegistry:
    def test_get_fabric_knows_every_kind(self):
        from repro.bus.fabric import get_fabric

        for kind in TOPOLOGY_KINDS:
            assert callable(get_fabric(kind))

    def test_unknown_fabric_rejected(self):
        from repro.bus.fabric import get_fabric

        with pytest.raises(ConfigError, match="unknown fabric kind"):
            get_fabric("torus")

    def test_explicit_buses_select_multibus(self):
        from repro.cli import _topology, build_parser

        args = build_parser().parse_args(["run", "--buses", "2"])
        assert _topology(args) == TopologyConfig(kind="multibus", buses=2)


class TestResultStamping:
    def test_run_result_carries_topology(self):
        result = api.simulate("bitar-despain", "sharing", processors=2,
                              topology=TopologyConfig(kind="directory"))
        payload = result.to_dict()
        assert payload["topology"] == "directory"
        assert payload["schema_version"] >= 5
        assert payload["config"]["topology"]["kind"] == "directory"

    def test_sweep_result_carries_topology(self):
        result = api.sweep("bitar-despain", "sharing", processors=(2, 3),
                           topology=TopologyConfig(kind="clustered",
                                                   clusters=2))
        payload = result.to_dict()
        assert payload["topology"] == "clustered"
        assert result.ok

    def test_default_stamp_is_snoop(self):
        result = api.simulate("bitar-despain", "sharing", processors=2)
        assert result.to_dict()["topology"] == "snoop"

    def test_run_result_stamps_the_representation(self):
        result = api.simulate(
            "bitar-despain", "sharing", processors=2,
            topology=TopologyConfig(kind="directory",
                                    directory_entry="coarse-vector",
                                    directory_region_size=2))
        payload = result.to_dict()
        assert payload["topology"] == "directory"
        assert payload["directory_entry"] == "coarse-vector"
        assert payload["schema_version"] >= 7

    def test_directory_default_entry_is_full_bit_vector(self):
        result = api.simulate("bitar-despain", "sharing", processors=2,
                              topology=TopologyConfig(kind="directory"))
        assert result.to_dict()["directory_entry"] == "full-bit-vector"

    def test_non_directory_entry_stamp_is_null(self):
        result = api.simulate("bitar-despain", "sharing", processors=2,
                              topology=TopologyConfig(kind="clustered",
                                                      clusters=2))
        assert result.to_dict()["directory_entry"] is None

    def test_sweep_result_stamps_the_representation(self):
        result = api.sweep(
            "bitar-despain", "sharing", processors=(2, 3),
            topology=TopologyConfig(kind="directory", directory_banks=2,
                                    directory_entry="limited-pointer",
                                    directory_pointers=1))
        payload = result.to_dict()
        assert payload["directory_entry"] == "limited-pointer"
        assert result.ok

    def test_validator_accepts_stamped_sweep(self, tmp_path):
        import json
        import subprocess
        import sys
        from pathlib import Path

        result = api.sweep("bitar-despain", "sharing", processors=(2,),
                           topology=TopologyConfig(kind="directory"))
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(result.to_dict()))
        repo = Path(__file__).resolve().parents[2]
        proc = subprocess.run(
            [sys.executable, str(repo / "scripts" / "validate_trace.py"),
             str(path)],
            capture_output=True, text=True,
            env=child_env(str(repo / "src")),
        )
        assert proc.returncode == 0, proc.stderr

    def test_validator_rejects_unstamped_v5_sweep(self, tmp_path):
        import json

        sys_path_probe = pytest.importorskip("repro")
        del sys_path_probe
        import importlib.util
        from pathlib import Path

        repo = Path(__file__).resolve().parents[2]
        spec = importlib.util.spec_from_file_location(
            "validate_trace", repo / "scripts" / "validate_trace.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        result = api.sweep("bitar-despain", "sharing", processors=(2,))
        payload = result.to_dict()
        del payload["topology"]
        errors = module.validate_sweep_result(payload)
        assert any("missing topology" in e for e in errors)
        payload["topology"] = "torus"
        errors = module.validate_sweep_result(payload)
        assert any("unknown fabric kind" in e for e in errors)
