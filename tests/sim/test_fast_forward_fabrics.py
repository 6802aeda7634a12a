"""Fast-forward identity across fabrics, protocols and workloads.

The event-skip engine ticks only the processors due on a cycle, settles
everyone else's counters lazily, and reads each bus's requester index
instead of polling every port.  Each of those must leave the statistics
bit-identical to the cycle-stepped reference on every fabric: the
single snoop bus, block-interleaved buses, clusters with interest
filtering, and the directory with each sharer-set representation.
Goodman and Dragon queue requests that revalidation can turn into a
refetch (their ``lost_copy`` maps); the optimistic-RMW cell exercises
revalidation's abort path.  The Aquarius cell adds the crossbar's
wake-heap entries on the two-switch system.

The stepped engine ticks every processor on every cycle, so each cell
also checks the due set and lazy settling against per-cycle ticking.
"""

import pytest

from repro import CacheConfig, SystemConfig
from repro.aquarius import AquariusSimulator, aquarius_workload
from repro.common.config import RmwMethod, TopologyConfig
from repro.processor.program import LockStyle
from repro.workloads import lock_contention, scale_probe
from tests.conftest import engines, style_for

FABRICS = {
    "snoop": TopologyConfig(kind="snoop"),
    "multibus-2": TopologyConfig(kind="multibus", buses=2),
    "clustered-2": TopologyConfig(kind="clustered", clusters=2),
    "directory-full": TopologyConfig(kind="directory", directory_banks=2),
    # One pointer per entry, so shared blocks overflow into broadcast.
    "directory-limited": TopologyConfig(
        kind="directory", directory_banks=2,
        directory_entry="limited-pointer", directory_pointers=1),
    "directory-coarse": TopologyConfig(
        kind="directory", directory_banks=2,
        directory_entry="coarse-vector", directory_region_size=4),
}
PROTOCOLS = ["bitar-despain", "illinois", "goodman", "dragon"]
#: ``(processors, program builder)`` per workload.
WORKLOADS = {
    "lock-contention": (8, lambda config: lock_contention(
        config, rounds=3, lock_style=style_for(config.protocol))),
    "scale-probe": (16, lambda config: scale_probe(
        config, total_references=1024)),
}


def _config(protocol, processors, topology, **kwargs) -> SystemConfig:
    return SystemConfig(num_processors=processors, protocol=protocol,
                        topology=topology,
                        cache=CacheConfig(words_per_block=4, num_blocks=64),
                        **kwargs)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("fabric", sorted(FABRICS))
def test_stepped_and_fast_forward_identical(fabric, protocol, workload):
    processors, build = WORKLOADS[workload]
    config = _config(protocol, processors, FABRICS[fabric])
    programs = build(config)
    stepped, fast = (s.to_payload() for s in engines(config, programs))
    assert fast == stepped


@pytest.mark.parametrize("fabric", ["snoop", "directory-limited"])
def test_optimistic_rmw_identical(fabric):
    config = _config("illinois", 8, FABRICS[fabric],
                     rmw_method=RmwMethod.OPTIMISTIC)
    programs = lock_contention(config, rounds=4, think_cycles=3,
                               lock_style=LockStyle.TAS)
    stepped, fast = engines(config, programs)
    assert stepped.rmw_aborts > 0
    assert fast.to_payload() == stepped.to_payload()


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("processors", [2, 8])
def test_aquarius_two_switch_identical(processors, seed):
    config = SystemConfig(num_processors=processors, seed=seed)
    programs = aquarius_workload(config)
    stepped, fast = (s.to_payload() for s in engines(
        config, programs, simulator=AquariusSimulator, check_interval=8))
    assert fast == stepped
