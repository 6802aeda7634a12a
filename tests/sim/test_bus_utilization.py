"""Bus utilization is a per-bus share of cycles on every fabric.

``SimStats.bus_busy_cycles`` sums the occupancy of every bus the fabric
arbitrates, so the utilization divides by cycles times buses; the
interval sampler divides the same way.
"""

import pytest

from repro import CacheConfig, Simulator, SystemConfig
from repro.common.config import TopologyConfig
from repro.obs import Observability
from repro.workloads.registry import build_workload

TOPOLOGIES = {
    "snoop": TopologyConfig(kind="snoop"),
    "multibus": TopologyConfig(kind="multibus", buses=4),
    "clustered": TopologyConfig(kind="clustered", clusters=2,
                                buses_per_cluster=2),
    "directory": TopologyConfig(kind="directory", directory_banks=4),
}


@pytest.mark.parametrize("kind", sorted(TOPOLOGIES))
def test_utilization_is_per_bus(kind):
    config = SystemConfig(num_processors=16, protocol="bitar-despain",
                          topology=TOPOLOGIES[kind],
                          cache=CacheConfig(words_per_block=4, num_blocks=64))
    obs = Observability(interval=50)
    sim = Simulator(config, build_workload("sharing", config), obs=obs,
                    fast_forward=True)
    stats = sim.run()
    buses = len(sim.bus.buses)
    assert stats.buses == buses == (1 if kind == "snoop" else 4)
    # On the multi-bus fabrics the sharing run's busy cycles, summed
    # over the buses, exceed its cycles: only a per-bus share is <= 1.
    assert 0 < stats.bus_utilization <= 1
    assert stats.bus_utilization == (stats.bus_busy_cycles
                                     / (stats.cycles * buses))
    previous_cycle = previous_busy = 0
    for sample in obs.sampler.samples:
        span = sample["cycle"] - previous_cycle
        assert sample["interval_bus_utilization"] == (
            (sample["bus_busy_cycles"] - previous_busy) / (span * buses))
        previous_cycle, previous_busy = (sample["cycle"],
                                         sample["bus_busy_cycles"])
