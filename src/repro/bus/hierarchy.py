"""Hierarchical multi-bus clusters (the scale-out snooping fabric).

Section A.2 limits broadcast coherence to one or two buses because every
cache must snoop every broadcast.  The clustered fabric keeps broadcast
*inside* a cluster of processors and filters it *between* clusters: each
cluster owns ``buses_per_cluster`` block-interleaved snooping buses, an
inter-cluster link joins them, and a per-block interest set -- which
clusters have ever issued a transaction on the block -- gates snoop
delivery so a cluster that never touched a block never hears about it.

The filter is sound because both ways a cache can come to care about a
snoop (a tagged frame, a busy-wait register armed on the block) are
established only by that cache's *own* prior bus transaction on the
same block, which enrolled its cluster in the interest set.  The set
only ever grows, so staleness errs toward extra (harmless) snoops, never
missing ones.  With one cluster the filter admits everything and the
fabric is cycle-identical to the flat multi-bus system.

Transactions whose requester lives outside the block's home cluster pay
a round trip on the inter-cluster link (``inter_cluster_hop_cycles``
each way) on top of the normal bus occupancy.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.bus.bus import Bus, BusPort
from repro.bus.multibus import MultiBusSystem
from repro.bus.signals import SNOOP_MISS, SnoopReply
from repro.bus.transaction import BusTransaction
from repro.common.config import TimingConfig, TopologyConfig
from repro.common.types import CacheId

if TYPE_CHECKING:
    from repro.cache.directory import DirectoryModel
    from repro.memory.main_memory import MainMemory
    from repro.obs.core import Observability
    from repro.sim.clock import Clock
    from repro.sim.stats import SimStats


class ClusteredBusSystem(MultiBusSystem):
    """``clusters`` snooping clusters of ``buses_per_cluster`` buses each,
    joined by an inter-cluster link with interest-filtered snooping."""

    def __init__(
        self,
        topology: TopologyConfig,
        memory: "MainMemory",
        timing: TimingConfig,
        clock: "Clock",
        stats: "SimStats",
        obs: "Observability" = None,  # type: ignore[assignment]
    ) -> None:
        from repro.obs.null import NULL_OBS

        self.topology = topology
        self.clusters = topology.clusters
        self.buses_per_cluster = topology.buses_per_cluster
        #: block number -> clusters that ever issued a txn on the block.
        self._interested: dict[int, set[int]] = {}
        #: Snoop deliveries suppressed by the interest filter.
        self.filtered_snoops = 0
        #: Messages carried by the inter-cluster link (requests,
        #: responses, and remote snoop broadcasts).
        self.link_messages = 0
        super().__init__(
            self.clusters * self.buses_per_cluster, memory, timing, clock,
            stats, obs if obs is not None else NULL_OBS,
        )

    def _make_bus(self, index: int) -> Bus:
        return ClusterBus(self, index)

    def cluster_of_port(self, cache_id: CacheId) -> int:
        """Processor caches are distributed round-robin over clusters;
        ports without a processor identity (I/O, id < 0) live in
        cluster 0."""
        if cache_id < 0:
            return 0
        return cache_id % self.clusters

    def home_cluster(self, bus_index: int) -> int:
        return bus_index // self.buses_per_cluster


class ClusterBus(Bus):
    """One snooping bus inside a cluster; snoops are delivered only to
    clusters enrolled in the block's interest set."""

    def __init__(self, system: ClusteredBusSystem, index: int) -> None:
        super().__init__(system.memory, system.timing, system.clock,
                         system.stats, obs=system.obs, index=index)
        self._system = system
        #: ``(id, port, cluster, duality model)`` per port in port
        #: order, the cluster computed once at attach.
        self._fanout: list[tuple[CacheId, BusPort, int,
                                 DirectoryModel | None]] = []

    def _add_delivery(self, port: BusPort) -> None:
        """The interest filter delivers to a subset of the ports, so each
        delivery charges its cache's duality model explicitly."""
        self._fanout.append((port.id, port,
                             self._system.cluster_of_port(port.id),
                             port.directory))

    def _snoop_all(
        self, requester: BusPort, txn: BusTransaction
    ) -> dict[CacheId, SnoopReply]:
        system = self._system
        block_number = txn.block // system.memory.words_per_block
        interested = system._interested.setdefault(block_number, set())
        interested.add(system.cluster_of_port(requester.id))
        home = system.home_cluster(self.index)
        system.link_messages += sum(1 for c in interested if c != home)
        rid = requester.id
        now = self.clock.cycle
        filtered = 0
        replies: dict[CacheId, SnoopReply] = {}
        for cid, port, cluster, model in self._fanout:
            if cid == rid:
                continue
            if cluster not in interested:
                filtered += 1
                continue
            if model is not None:
                model.record_delivery(now)
            reply = port.snoop(txn)
            if reply is not SNOOP_MISS:
                replies[cid] = reply
        system.filtered_snoops += filtered
        return replies

    def _duration(self, txn, response, replies, info) -> int:
        cycles = super()._duration(txn, response, replies, info)
        system = self._system
        src = system.cluster_of_port(txn.requester)
        home = system.home_cluster(self.index)
        if src != home:
            # Request out and response back over the link.
            cycles += 2 * system.topology.inter_cluster_hop_cycles
            system.link_messages += 2
            if self.obs.active:
                self.obs.record_cluster_hop(self.clock.cycle, txn.block,
                                            src, home)
        return cycles
