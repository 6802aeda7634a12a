"""Directory-fabric conformance matrix.

The table-driven home bank must be a pure refactor of the hard-coded
policy it replaced: with the default full-bit-vector entry, every cell
of {ten protocols} x {stepped, fast-forward} must reproduce the
committed golden (SimStats payload + fabric message tallies) bit for
bit.  The compact representations (limited-pointer,
coarse-vector) trade precision for storage, so they are held to the
coherence bar instead: deadlock-free, verifier-clean runs and a clean
model-checking pass over the directory scenarios.

Regenerate the golden with ``scripts/gen_directory_golden.py`` only
when the directory's observable behavior changes *on purpose*.
"""

import dataclasses
import json
from pathlib import Path

import pytest

import repro.mc as mc
from repro import api
from repro.common.config import TopologyConfig
from repro.directory_backend import DirectorySystem
from repro.protocols import PROTOCOLS
from repro.sim.engine import Simulator
from repro.workloads.registry import build_workload
from tests.conftest import engines

GOLDEN_PATH = Path(__file__).parent / "fixtures" / "directory_golden.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text())

MODES = ("stepped", "fast-forward")


def _matrix_cell(protocol: str, mode: str) -> dict:
    config = api._build_config(
        protocol, processors=GOLDEN["processors"],
        topology=TopologyConfig(kind="directory",
                                directory_banks=GOLDEN["directory_banks"]))
    programs = build_workload(GOLDEN["workload"], config)
    sim = Simulator(config, programs, fast_forward=mode == "fast-forward")
    sim.run()
    assert isinstance(sim.bus, DirectorySystem)
    return {
        "stats": sim.stats.to_payload(),
        "message_tallies": sim.bus.message_tallies(),
    }


class TestFullVectorMatrixIsBitIdentical:
    def test_golden_covers_the_whole_matrix(self):
        expected = {f"{p}/{m}" for p in PROTOCOLS for m in MODES}
        assert set(GOLDEN["cells"]) == expected

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
    def test_cell_matches_golden(self, protocol, mode):
        got = json.loads(json.dumps(_matrix_cell(protocol, mode)))
        key = f"{protocol}/{mode}"
        assert got == GOLDEN["cells"][key], (
            f"{key} diverged from the pre-refactor directory behavior"
        )


COMPACT_TOPOLOGIES = {
    # One pointer on four processors overflows on the second sharer, so
    # the run exercises enroll-overflow, probe-all, and the collapse
    # back to a precise entry after every invalidation.
    "limited-pointer-1": TopologyConfig(
        kind="directory", directory_banks=2,
        directory_entry="limited-pointer", directory_pointers=1),
    # Two caches per region bit: every probe-listed over-probes within
    # the region, and region membership is discarded lazily.
    "coarse-vector-2": TopologyConfig(
        kind="directory", directory_banks=2,
        directory_entry="coarse-vector", directory_region_size=2),
}


class TestCompactRepresentationsStayCoherent:
    # Write-through is absent on purpose: the classic scheme
    # legitimately yields stale reads (Section F.1), representation or
    # not, so a stale-read bar would test the protocol, not the entry.
    @pytest.mark.parametrize("name", sorted(COMPACT_TOPOLOGIES))
    @pytest.mark.parametrize("protocol", ["bitar-despain", "illinois",
                                          "rudolph-segall"])
    def test_verified_run_is_clean(self, protocol, name):
        result = api.simulate(
            protocol, "lock-contention", processors=6,
            topology=COMPACT_TOPOLOGIES[name], check_interval=8,
        )
        assert result.stats.stale_reads == 0
        assert result.topology == "directory"
        assert result.directory_entry == COMPACT_TOPOLOGIES[name].directory_entry

    @pytest.mark.parametrize("name", sorted(COMPACT_TOPOLOGIES))
    def test_fast_forward_identity(self, name):
        topo = COMPACT_TOPOLOGIES[name]
        config = api._build_config("bitar-despain", processors=6,
                                   topology=topo)
        stepped, fast = engines(config,
                                build_workload("lock-contention", config))
        assert stepped.to_payload() == fast.to_payload()

    @pytest.mark.parametrize("scenario", ["directory-upgrade",
                                          "directory-overflow"])
    @pytest.mark.parametrize("protocol", ["bitar-despain", "illinois"])
    def test_mc_clean_on_directory_scenarios(self, protocol, scenario):
        exploration = mc.explore(mc.get_scenario(scenario), protocol)
        assert exploration.failure is None, (
            f"{protocol} failed {scenario}: {exploration.failure}"
        )

    @pytest.mark.parametrize("protocol", ["bitar-despain", "illinois"])
    def test_mc_clean_on_coarse_vector(self, protocol):
        # The registered overflow scenario pins limited-pointer; run the
        # same access pattern over a coarse-vector entry so the region
        # approximation faces the exhaustive schedule space too.
        base = mc.get_scenario("directory-overflow")

        def build(proto):
            config, programs = base.build(proto)
            topo = TopologyConfig(kind="directory",
                                  directory_entry="coarse-vector",
                                  directory_region_size=2)
            config = dataclasses.replace(config, topology=topo)
            return config, programs

        scenario = mc.Scenario(
            name="directory-overflow-coarse",
            description="overflow scenario over a coarse-vector entry",
            build=build,
        )
        exploration = mc.explore(scenario, protocol)
        assert exploration.failure is None, (
            f"{protocol} failed coarse-vector exploration: "
            f"{exploration.failure}"
        )
