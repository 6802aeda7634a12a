"""Dual/multi-bus broadcast systems.

Section A.2: "broadcast is currently seen only in single or dual bus
systems, because this limits the number of simultaneous broadcasters to
one or two."  This module provides the dual (generally k-bus) variant:
blocks are interleaved across buses by block number, each bus arbitrates
independently, and every cache snoops every bus -- so up to k broadcasts
proceed per cycle on disjoint address partitions.

Coherence is unaffected: all transactions for one block serialize on that
block's bus, which is all the single-writer argument needs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.bus.bus import Bus, BusPort, RequesterEntry
from repro.bus.signals import SnoopReply
from repro.bus.transaction import BusTransaction
from repro.common.config import TimingConfig
from repro.common.types import BlockAddr, CacheId, Stamp
from repro.obs.null import NULL_OBS

if TYPE_CHECKING:
    from repro.memory.main_memory import MainMemory
    from repro.obs.core import Observability
    from repro.sim.clock import Clock
    from repro.sim.stats import SimStats


class _BusPortView:
    """One cache's face toward one of the buses: offers the cache's
    current request only when this bus owns the request's block."""

    def __init__(self, port: BusPort, system: "MultiBusSystem",
                 bus_index: int) -> None:
        self._port = port
        self._system = system
        self._bus_index = bus_index
        self.id: CacheId = port.id
        self.directory = port.directory

    def has_bus_request(self) -> bool:
        # The bus asks only the ports its requester index lists, and a
        # port is listed on exactly the bus that owns its request.
        return self._port.has_bus_request()

    def has_request_hint(self) -> bool:
        """Does the port have a posted request this bus owns?  The
        defining predicate of the bus's requester index, which the
        invariant checker compares the index against."""
        if not self._port.has_request_hint():
            return False
        block = getattr(self._port, "current_request_block", lambda: None)()
        return self._system.bus_index_of(block) == self._bus_index

    def bus_request_priority(self) -> bool:
        return self._port.bus_request_priority()

    def bus_request_revalidates(self) -> bool:
        return self._port.bus_request_revalidates()

    def take_bus_transaction(self) -> BusTransaction:
        return self._port.take_bus_transaction()

    def on_txn_granted(self, txn: BusTransaction, response,
                       data: list[Stamp] | None):
        return self._port.on_txn_granted(txn, response, data)

    def snoop(self, txn: BusTransaction) -> SnoopReply:
        return self._port.snoop(txn)

    def finish_bus_release(self) -> None:
        self._port.finish_bus_release()

    # The single-bus Bus peeks at `protocol` for source-loss accounting.
    @property
    def protocol(self):
        return getattr(self._port, "protocol", None)


class MultiBusSystem:
    """k independent buses over block-interleaved address partitions."""

    def __init__(
        self,
        n_buses: int,
        memory: "MainMemory",
        timing: TimingConfig,
        clock: "Clock",
        stats: "SimStats",
        obs: "Observability" = NULL_OBS,
    ) -> None:
        if n_buses < 1:
            raise ValueError("need at least one bus")
        self.n_buses = n_buses
        self.memory = memory
        self.timing = timing
        self.clock = clock
        self.stats = stats
        self.obs = obs
        self.buses = [self._make_bus(i) for i in range(n_buses)]

    def _make_bus(self, index: int) -> Bus:
        """Factory for one serialization domain; subclasses (clustered,
        directory) substitute their own Bus subclass here."""
        return Bus(self.memory, self.timing, self.clock, self.stats,
                   obs=self.obs, index=index)

    @property
    def scheduler(self):
        return self.buses[0].scheduler

    @scheduler.setter
    def scheduler(self, value) -> None:
        for bus in self.buses:
            bus.scheduler = value

    def bus_of(self, block: BlockAddr) -> int:
        block_number = block // self.memory.words_per_block
        return block_number % self.n_buses

    def bus_index_of(self, block: BlockAddr | None) -> int:
        """The bus owning a request on ``block``; ports without routing
        information (``None``, e.g. the I/O processor) use bus 0."""
        return 0 if block is None else self.bus_of(block)

    def attach(self, port: BusPort) -> None:
        slots = {bus.register(_BusPortView(port, self, index))
                 for index, bus in enumerate(self.buses)}
        # Every bus attaches the same ports in the same order.
        (slot,) = slots
        port.route_requests(RequesterEntry(self._route, slot))

    def _route(self, block: BlockAddr | None) -> Bus:
        return self.buses[self.bus_index_of(block)]

    def step(self) -> bool:
        active = False
        for bus in self.buses:
            if bus.step():
                active = True
        return active

    def next_event_cycle(self) -> int:
        """Earliest cycle at which any constituent bus does anything."""
        return min(bus.next_event_cycle() for bus in self.buses)

    @property
    def busy(self) -> bool:
        return any(bus.busy for bus in self.buses)

    @property
    def has_requesters(self) -> bool:
        return any(bus.has_requesters for bus in self.buses)

    def check_requester_index(self) -> None:
        """Check every bus's requester index and its priority and
        revalidation sub-sets (:meth:`Bus.check_requester_index`)."""
        for bus in self.buses:
            bus.check_requester_index()

    @property
    def pending_release(self) -> bool:
        return any(bus.pending_release for bus in self.buses)
