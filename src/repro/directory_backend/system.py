"""The directory fabric: home banks, sharer vectors, point-to-point
delivery.

Blocks interleave across ``directory_banks`` home banks exactly as they
interleave across buses in the multi-bus system, so every transaction on
a block serializes at its home bank -- the same single-writer argument,
with the bank in the bus's role.  Instead of broadcasting, the bank
looks the request up in the home-bank
:class:`~repro.directory_backend.table.DirectoryTable` (through the same
guard-bit rows as any protocol table) and executes the matched row's
actions: probe-set selection, membership refresh, message tallies, and
hop/lookup timing.

**Why pruning is sound.**  A cache reacts to a snoop only when
:meth:`~repro.cache.cache.Cache.cares_about` holds -- the block is
tagged in a frame, or the busy-wait register is armed on the block.
Both conditions are created exclusively by that cache's *own* bus
transaction on the same block, so a cache outside the sharer set would
have answered miss; pruning it changes no replies, only traffic.  The
obligations that keep the sharer set honest are lint rules over the
table rather than prose: every delivery row must ``enroll`` the
requester, probe, and ``refresh`` the caches the transaction could have
changed (``directory-sharer-drop``), and rows meeting an overflowed --
imprecise -- representation must broadcast
(``directory-overflow-policy``).  See
:mod:`repro.directory_backend.table`.

Timing: on top of the bus occupancy model, the matched row's ``pay-*``
atoms charge the home-bank ``directory_lookup_cycles``, a
request/response round trip (``2 * inter_cluster_hop_cycles``), the
third hop of a cache-to-cache forwarded supply, and an invalidate/ack
round trip when the probe fanout is nonzero.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.bus.bus import Bus, BusPort
from repro.bus.multibus import MultiBusSystem
from repro.bus.signals import SnoopReply
from repro.bus.transaction import BusTransaction
from repro.common.config import TimingConfig, TopologyConfig
from repro.common.types import CacheId
from repro.directory_backend.representations import representation_factory
from repro.directory_backend.state import DirectoryEntry, DirectoryState
from repro.directory_backend.table import (
    DIR_EVENT_OF,
    HOME_BANK_TABLE,
    DirectoryTable,
    guard_bits_of,
    home_state_of,
)
from repro.protocols.table import Rule

if TYPE_CHECKING:
    from repro.memory.main_memory import MainMemory
    from repro.obs.core import Observability
    from repro.sim.clock import Clock
    from repro.sim.stats import SimStats


class DirectoryFabric(Bus):
    """One home bank: serializes its blocks' transactions and executes
    the home-bank table's actions to deliver them."""

    #: The home-bank policy.  A class attribute so the mc mutation
    #: harness can patch it exactly like a protocol table.
    table: DirectoryTable = HOME_BANK_TABLE

    def __init__(self, system: "DirectorySystem", index: int) -> None:
        super().__init__(system.memory, system.timing, system.clock,
                         system.stats, obs=system.obs, index=index)
        self._system = system
        self.directory = DirectoryState(
            index, representation_factory(system.topology))
        self._last_probed: set[CacheId] = set()
        # Resolved per instance so a class-level ``table`` patch (the mc
        # mutation harness) is honoured by instances created under it.
        self._table = self.table
        self._table.guard_rows()
        self._active_row: Rule | None = None

    def _add_delivery(self, port: BusPort) -> None:
        """The bank probes a subset of the ports and charges each probe
        to its cache's duality model (:meth:`_probe`), so no model
        settles from its broadcasts."""

    def _probe(self, port: BusPort, txn: BusTransaction) -> SnoopReply:
        model = port.directory
        if model is not None:
            model.record_delivery(self.clock.cycle)
        return port.snoop(txn)

    # -- delivery -----------------------------------------------------------

    def _entry_of(self, txn: BusTransaction) -> DirectoryEntry:
        block_number = txn.block // self.memory.words_per_block
        return self.directory.entry(block_number)

    def _snoop_all(
        self, requester: BusPort, txn: BusTransaction
    ) -> dict[CacheId, SnoopReply]:
        entry = self._entry_of(txn)
        sharers = entry.sharers
        rid = requester.id
        ports = self._ports
        peers = any(cid != rid and cid in ports for cid in sharers.members())
        row = self._table.lookup_bits(
            home_state_of(entry), DIR_EVENT_OF[txn.op],
            guard_bits_of(entry, rid, peers))
        self._active_row = row
        replies: dict[CacheId, SnoopReply] = {}
        for action in row.actions:
            if action == "enroll":
                sharers.enroll(rid)
            elif action == "count-request":
                self.directory.requests += 1
            elif action == "probe-listed":
                # Members come in ascending id order, the caches' port
                # order (they attach in id order; the cacheless I/O
                # port answers every snoop with a plain miss, so where
                # it falls cannot matter), which keeps reply combination
                # and read-source arbitration bus-identical.  Read after
                # ``enroll``: a coarse region may have grown.
                for cid in sharers.members():
                    if cid != rid and cid in ports:
                        replies[cid] = self._probe(ports[cid], txn)
            elif action == "probe-all":
                for cid, port in ports.items():
                    if cid != rid:
                        replies[cid] = self._probe(port, txn)
        self._last_probed = set(replies)
        return replies

    def _execute(self, port: BusPort, txn: BusTransaction) -> None:
        self._active_row = None
        self._last_probed = set()
        super()._execute(port, txn)
        row = self._active_row
        if row is not None and "refresh" in row.actions:
            self._refresh(txn, {txn.requester} | self._last_probed)

    def _refresh(self, txn: BusTransaction, probed: set[CacheId]) -> None:
        """Re-derive directory membership for the caches this
        transaction could have changed (requester + probed set).

        A ``probe-all`` round covered every port, so the refresh is
        *complete* and a lossy representation may rebuild its tracking
        exactly (Dir-n-B collapsing out of broadcast mode)."""
        entry = self._entry_of(txn)
        keep: list[CacheId] = []
        drop: list[CacheId] = []
        for cid in probed:
            cache = self._ports.get(cid)
            if cache is None:
                continue
            if not hasattr(cache, "array"):
                # Cacheless ports (I/O) answer every snoop with a miss;
                # the directory never needs to list them.
                drop.append(cid)
                continue
            if cache.cares_about(txn.block):
                keep.append(cid)
                line = cache.line_for(txn.block)
                if line is not None and line.state.dirty:
                    entry.owner = cid
                elif entry.owner == cid:
                    entry.owner = None
            else:
                drop.append(cid)
                if entry.owner == cid:
                    entry.owner = None
        row = self._active_row
        complete = row is not None and "probe-all" in row.actions
        entry.sharers.refresh(keep, drop, complete=complete)

    # -- timing and traffic --------------------------------------------------

    def _duration(self, txn, response, replies, info) -> int:
        cycles = super()._duration(txn, response, replies, info)
        row = self._active_row
        if row is None:
            return cycles
        topo = self._system.topology
        hop = topo.inter_cluster_hop_cycles
        directory = self.directory
        probes = len(replies)
        supplied = response.supplier is not None
        actions = row.actions
        if "pay-lookup" in actions:
            cycles += topo.directory_lookup_cycles
        if "pay-round-trip" in actions:
            cycles += 2 * hop
        if supplied and "pay-forward-hop" in actions:
            # Three-hop forwarded supply: home -> owner -> requester.
            cycles += hop
        if probes and "pay-inval-round-trip" in actions:
            # The slowest probe's invalidate/ack round trip.
            cycles += 2 * hop
        obs_active = self.obs.active
        if obs_active and "count-request" in actions:
            self.obs.record_directory_msgs(
                self.clock.cycle, "request", txn.block, self.index)
        if "count-response" in actions:
            directory.responses += 1
            if obs_active:
                self.obs.record_directory_msgs(
                    self.clock.cycle, "response", txn.block, self.index)
        if "tally-traffic" in actions:
            # Single source for the network message counts: the same
            # forward/invalidation/ack arithmetic feeds the bank's
            # tallies and the observability counters.
            forwards = 1 if supplied else 0
            invalidations = probes - forwards
            directory.forwards += forwards
            directory.invalidations += invalidations
            directory.acks += probes
            if obs_active:
                if supplied:
                    self.obs.record_directory_msgs(
                        self.clock.cycle, "forward", txn.block, self.index)
                if probes:
                    self.obs.record_directory_msgs(
                        self.clock.cycle, "invalidation", txn.block,
                        self.index, invalidations)
                    self.obs.record_directory_msgs(
                        self.clock.cycle, "ack", txn.block, self.index,
                        probes)
        return cycles


class DirectorySystem(MultiBusSystem):
    """``directory_banks`` home banks over block-interleaved partitions."""

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
        super().__init__(topology.directory_banks, memory, timing, clock,
                         stats, obs if obs is not None else NULL_OBS)

    def _make_bus(self, index: int) -> Bus:
        return DirectoryFabric(self, index)

    @property
    def banks(self) -> list[DirectoryState]:
        return [bus.directory for bus in self.buses]

    def message_tallies(self) -> dict[str, int]:
        """Point-to-point message counts summed over all home banks.

        Keys come from the banks themselves, so a bank growing a new
        tally kind shows up here instead of raising."""
        total: dict[str, int] = {}
        for bank in self.banks:
            for key, value in bank.tallies().items():
                total[key] = total.get(key, 0) + value
        return total

    @property
    def messages(self) -> int:
        return sum(bank.messages for bank in self.banks)
