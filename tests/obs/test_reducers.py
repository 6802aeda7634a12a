"""Every observability reducer agrees with the engine's own counts.

The registry's counters and histograms, and the traced tier's handoff
chains, are fed by publication hooks that are independent of
``SimStats``; on every fabric they must add up to the same totals.
"""

from __future__ import annotations

import pytest

from repro.common.config import CacheConfig, SystemConfig, TopologyConfig
from repro.obs import Observability
from repro.sim.engine import Simulator
from repro.workloads.registry import build_workload

TOPOLOGIES = {
    "snoop": TopologyConfig(),
    "multibus": TopologyConfig(kind="multibus", buses=2),
    "clustered": TopologyConfig(kind="clustered", clusters=2),
    "directory": TopologyConfig(kind="directory", directory_banks=4),
}


def _counter_total(metrics: dict, name: str) -> float:
    return sum(entry["value"] for entry in metrics[name]["values"])


@pytest.fixture(scope="module", params=[
    (protocol, topology) for protocol in ("bitar-despain", "illinois")
    for topology in TOPOLOGIES])
def traced(request):
    protocol, topology = request.param
    config = SystemConfig(num_processors=8, protocol=protocol,
                          topology=TOPOLOGIES[topology],
                          cache=CacheConfig(words_per_block=4, num_blocks=64))
    obs = Observability(interval=50, tracing=True)
    sim = Simulator(config, build_workload("lock-contention", config),
                    obs=obs)
    stats = sim.run()
    return sim, obs, stats, obs.result().metrics


class TestReducersAgreeWithSimStats:
    def test_bus_transactions(self, traced):
        _sim, _obs, stats, metrics = traced
        assert (_counter_total(metrics, "bus_txns_total")
                == sum(stats.txn_counts.values()))

    def test_invalidations(self, traced):
        _sim, _obs, stats, metrics = traced
        assert (_counter_total(metrics, "invalidations_total")
                == stats.invalidations_received)

    def test_cache_to_cache_transfers(self, traced):
        _sim, _obs, stats, metrics = traced
        assert (_counter_total(metrics, "c2c_transfers_total")
                == stats.cache_to_cache_transfers)

    def test_unlock_broadcasts(self, traced):
        _sim, _obs, stats, metrics = traced
        assert (_counter_total(metrics, "unlock_broadcasts_total")
                == stats.unlock_broadcasts)

    def test_lock_acquisitions_and_handoff_chains(self, traced):
        _sim, obs, stats, metrics = traced
        assert stats.total_lock_acquisitions > 0
        assert (_counter_total(metrics, "lock_acquisitions_total")
                == stats.total_lock_acquisitions
                == sum(len(chain) for chain in obs.handoffs.values()))

    def test_lock_hold_cycles(self, traced):
        _sim, _obs, stats, metrics = traced
        held = sum(entry["sum"]
                   for entry in metrics["lock_hold_cycles"]["values"])
        assert held == sum(p.lock_hold_cycles
                           for p in stats.processors.values())

    def test_directory_messages(self, traced):
        sim, _obs, _stats, metrics = traced
        total = _counter_total(metrics, "directory_msgs_total")
        if not hasattr(sim.bus, "message_tallies"):
            assert total == 0
            return
        assert total == sum(sim.bus.message_tallies().values()) > 0
