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
from repro.common.config import TimingConfig
from repro.common.types import BlockAddr
from repro.obs.null import NULL_OBS

if TYPE_CHECKING:
    from repro.memory.main_memory import MainMemory
    from repro.obs.core import Observability
    from repro.sim.clock import Clock
    from repro.sim.stats import SimStats


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
        # Each bus checks its requester index against the same routing
        # that files the requests (:class:`RequesterEntry`).
        for bus in self.buses:
            bus._route = self._route

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

    def attach(self, port: BusPort) -> None:
        """Register ``port`` itself on every bus: every cache snoops
        every bus, and a bus arbitrates the port's request only while
        the request's block routes to it."""
        slots = {bus.register(port) for bus in self.buses}
        # Every bus attaches the same ports in the same order.
        (slot,) = slots
        port.route_requests(RequesterEntry(self._route, slot))

    def _route(self, block: BlockAddr | None) -> Bus:
        """The bus owning a request on ``block``; a port without routing
        information (``None``: the I/O processor) uses bus 0."""
        return self.buses[0 if block is None else self.bus_of(block)]

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
