"""Every multi-bus fabric attaches each cache itself to every bus.

The multi-bus, clustered and directory fabrics share one port list
across their buses (every cache snoops every bus) and one routing
decision: a cache's request is filed under, and checked against, the
bus its block routes to.
"""

import pytest

from repro import Program, Simulator, SystemConfig
from repro.common.config import TopologyConfig
from repro.common.errors import CoherenceViolation
from repro.processor import isa

TOPOLOGIES = {
    "multibus": TopologyConfig(kind="multibus", buses=2),
    "clustered": TopologyConfig(kind="clustered", clusters=2),
    "directory": TopologyConfig(kind="directory", directory_banks=2),
}


def _sim(kind: str) -> Simulator:
    config = SystemConfig(num_processors=4, topology=TOPOLOGIES[kind])
    return Simulator(config, [Program([]) for _ in range(4)])


@pytest.mark.parametrize("kind", sorted(TOPOLOGIES))
class TestFabricPorts:
    def test_each_bus_lists_the_caches_themselves(self, kind):
        sim = _sim(kind)
        assert len(sim.bus.buses) == 2
        for bus in sim.bus.buses:
            for index, cache in enumerate(sim.caches):
                assert bus._port_list[index] is cache

    def test_slot_filed_on_the_wrong_bus_detected(self, kind):
        sim = _sim(kind)
        cache = sim.caches[0]
        block = sim.memory.words_per_block  # block number 1: bus 1
        cache.access(isa.read(block))
        owner, other = sim.bus.buses[1], sim.bus.buses[0]
        assert owner._requesters == {0} and not other._requesters
        sim.bus.check_requester_index()
        owner._requesters.discard(0)
        other._requesters.add(0)
        with pytest.raises(CoherenceViolation,
                           match=f"^bus {other.index}: requester index"):
            other.check_requester_index()
