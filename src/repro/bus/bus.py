"""The single broadcast bus (Section A.2).

At most one transaction occupies the bus at a time.  A grant is atomic:
the winning requester's transaction is broadcast, every other port snoops
and changes state immediately, memory is consulted, and the requester
completes -- all at the grant cycle.  The transaction then *occupies* the
bus for a duration derived from :class:`~repro.common.config.TimingConfig`,
and the requesting processor resumes when the bus frees.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Protocol

from repro.bus.arbiter import Arbiter
from repro.bus.signals import (SNOOP_MISS, SNOOP_UNLOCK_TAKEN, BusResponse,
                               SnoopReply)
from repro.bus.transaction import BusOp, BusTransaction
from repro.cache.directory import BroadcastLog
from repro.common.config import TimingConfig
from repro.common.errors import CoherenceViolation
from repro.common.types import NEVER, BlockAddr, CacheId, Stamp
from repro.protocols.features import ReadSourcePolicy

from repro.obs.null import NULL_OBS

if TYPE_CHECKING:
    from repro.cache.directory import DirectoryModel
    from repro.memory.main_memory import MainMemory
    from repro.obs.core import Observability
    from repro.protocols.table import TableProtocol
    from repro.sim.clock import Clock
    from repro.sim.stats import SimStats

# Enum members bound once for the per-transaction path: reading a
# member through its class is a Python-level ``EnumType.__getattr__``
# call (DESIGN.md section 4).
_UNLOCK_BROADCAST, _IO_OUTPUT_READ, _MEMORY_RMW, _FLUSH_BLOCK = (
    BusOp.UNLOCK_BROADCAST, BusOp.IO_OUTPUT_READ, BusOp.MEMORY_RMW,
    BusOp.FLUSH_BLOCK)
#: Operations by the occupancy rule :meth:`Bus._base_duration` applies.
_ADDRESS_ONLY_OPS = (BusOp.UPGRADE, BusOp.WRITE_NO_FETCH,
                     BusOp.MEMORY_LOCK_WRITE, BusOp.UNLOCK_BROADCAST,
                     BusOp.IO_INPUT)
_WORD_WRITE_OPS = (BusOp.WRITE_WORD, BusOp.UPDATE_WORD)
#: Read-source policies under which a memory fetch despite cached
#: copies counts as a source loss (Feature 8).
_SOURCE_LOSS_POLICIES = (ReadSourcePolicy.MEMORY, ReadSourcePolicy.LRU)


class RequesterEntry:
    """One port's place in its fabric's requester index.

    The fabric creates the entry when it attaches the port, with the
    port's slot (its attach position) and a ``route`` from a request's
    block to the :class:`Bus` that owns it (``None`` for a port without
    routing information: bus 0).  The port calls :meth:`place` after
    every change to its posted request, so each bus's index always
    lists exactly the ports with a request that bus must arbitrate, and
    files each of them by the request's priority bit and by whether
    arbitration must revalidate it.
    """

    __slots__ = ("_route", "_slot", "_bus")

    def __init__(self, route: "Callable[[BlockAddr | None], Bus]",
                 slot: int) -> None:
        self._route = route
        self._slot = slot
        self._bus: Bus | None = None

    def place(self, posted: bool, block: "BlockAddr | None" = None,
              high: bool = False, revalidates: bool = False) -> None:
        """File the slot under the bus owning ``block`` while a request
        is ``posted``, under none otherwise; on that bus, in ``_high``
        when the request asserts the priority bit (Section E.4) and in
        ``_sensitive`` when its op is one revalidation can change."""
        slot = self._slot
        target = self._route(block) if posted else None
        bus = self._bus
        if target is not bus:
            if bus is not None:
                bus._requesters.discard(slot)
                bus._high.discard(slot)
                bus._sensitive.discard(slot)
            if target is not None:
                target._requesters.add(slot)
            self._bus = target
        if target is not None:
            if high:
                target._high.add(slot)
            else:
                target._high.discard(slot)
            if revalidates:
                target._sensitive.add(slot)
            else:
                target._sensitive.discard(slot)


class BusPort(Protocol):
    """What the bus requires of anything attached to it (caches, I/O)."""

    id: CacheId
    #: The port's directory-duality model (Feature 3), which the fabric
    #: charges for the snoops it delivers; ``None`` for a cacheless port.
    directory: "DirectoryModel | None"
    #: The port's coherence protocol, read for source-loss accounting;
    #: ``None`` for a cacheless port.
    protocol: "TableProtocol | None"

    def route_requests(self, entry: RequesterEntry) -> None:
        """Keep ``entry`` placed from now on (see :class:`RequesterEntry`)."""

    def has_bus_request(self) -> bool: ...

    def has_request_hint(self) -> bool: ...

    def current_request_block(self) -> BlockAddr | None:
        """The block the posted request targets, which picks the bus
        that arbitrates it; ``None`` (no routing information) is bus 0's."""

    def bus_request_priority(self) -> bool: ...

    def bus_request_revalidates(self) -> bool:
        """Would :meth:`has_bus_request` revalidate the posted request
        (and so possibly change or withdraw it)?"""

    def take_bus_transaction(self) -> BusTransaction: ...

    def on_txn_granted(self, txn: BusTransaction, response: BusResponse,
                       data: list[Stamp] | None): ...

    def snoop(self, txn: BusTransaction) -> SnoopReply: ...

    def finish_bus_release(self) -> None: ...


class Bus:
    """Single bus with snoop broadcast and a busy-cycle occupancy model."""

    def __init__(
        self,
        memory: "MainMemory",
        timing: TimingConfig,
        clock: "Clock",
        stats: "SimStats",
        obs: "Observability" = NULL_OBS,
        index: int = 0,
    ) -> None:
        self.memory = memory
        self.timing = timing
        self.clock = clock
        self.stats = stats
        self.obs = obs
        #: Optional :class:`~repro.sim.schedule.Scheduler` resolving
        #: arbitration and read-source ties; ``None`` keeps the built-in
        #: deterministic tie-breaks (round-robin, lowest id).
        self.scheduler = None
        #: Position in a multi-bus system (labels this bus's metrics).
        self.index = index
        self._ports: dict[CacheId, BusPort] = {}
        #: The ports in attach order; a port's index here is its slot.
        self._port_list: list[BusPort] = []
        #: Requester index: slots of the ports with a posted request this
        #: bus owns, kept by the ports (see :class:`RequesterEntry`), and
        #: its two sub-sets: requests asserting the priority bit, and
        #: requests arbitration must revalidate before granting.
        self._requesters: set[int] = set()
        self._high: set[int] = set()
        self._sensitive: set[int] = set()
        self._arbiter: Arbiter | None = None
        self._busy_until = 0
        self._active_port: BusPort | None = None
        #: Every grant's broadcast, which settles the duality models of
        #: the caches it snoops (see :meth:`_snoop_all`).
        self._broadcasts = BroadcastLog()

    # -- wiring -------------------------------------------------------------

    def attach(self, port: BusPort) -> None:
        port.route_requests(RequesterEntry(self._route, self.register(port)))

    def register(self, port: BusPort) -> int:
        """Add ``port`` to this bus's port list; returns its slot.  The
        caller hands the port its :class:`RequesterEntry`."""
        if port.id in self._ports:
            raise ValueError(f"port {port.id} already attached")
        self._ports[port.id] = port
        self._port_list.append(port)
        self._add_delivery(port)
        if self._arbiter is None:
            self._arbiter = Arbiter([port.id])
        else:
            self._arbiter.add(port.id)
        return len(self._port_list) - 1

    def _add_delivery(self, port: BusPort) -> None:
        """Wire ``port`` into snoop delivery.  Every broadcast snoops
        every port but the requester, so the port's duality model
        settles from this bus's broadcast log."""
        if port.directory is not None:
            port.directory.watch(self._broadcasts)

    def _route(self, block) -> "Bus":
        """Every request on a single bus is this bus's to grant.  A
        multi-bus fabric replaces this with its own routing, so a
        request is filed (:class:`RequesterEntry`) and checked
        (:meth:`check_requester_index`) by one decision."""
        return self

    @property
    def buses(self) -> list["Bus"]:
        """The buses this fabric arbitrates: a single bus is its own
        (a multi-bus fabric lists its buses)."""
        return [self]

    @property
    def has_requesters(self) -> bool:
        """Some port has a posted request on this bus."""
        return bool(self._requesters)

    def check_requester_index(self) -> None:
        """Raise :class:`CoherenceViolation` unless the requester index
        lists exactly the ports with a posted request this bus owns (its
        block routes here), its ``_high`` set exactly those asserting
        the priority bit, and its ``_sensitive`` set exactly those whose
        request revalidates."""
        route = self._route
        posted = {slot for slot, port in enumerate(self._port_list)
                  if port.has_request_hint()
                  and route(port.current_request_block()) is self}
        if posted != self._requesters:
            raise CoherenceViolation(
                f"bus {self.index}: requester index "
                f"{sorted(self._requesters)} but ports "
                f"{sorted(posted)} have posted requests"
            )
        ports = self._port_list
        for name, indexed, expected in (
            ("priority", self._high,
             {slot for slot in posted if ports[slot].bus_request_priority()}),
            ("revalidation", self._sensitive,
             {slot for slot in posted
              if ports[slot].bus_request_revalidates()}),
        ):
            if expected != indexed:
                raise CoherenceViolation(
                    f"bus {self.index}: {name} index {sorted(indexed)} "
                    f"but ports {sorted(expected)} have such requests"
                )

    def port(self, cache_id: CacheId) -> BusPort:
        return self._ports[cache_id]

    @property
    def busy(self) -> bool:
        return self.clock.cycle < self._busy_until

    @property
    def pending_release(self) -> bool:
        """An expired occupancy whose requester has not been released yet."""
        return not self.busy and self._active_port is not None

    def next_event_cycle(self) -> int:
        """Earliest cycle at which :meth:`step` does anything.

        While occupied the bus is inert until ``_busy_until`` (the release
        and the following arbitration happen on that cycle).  When free it
        acts immediately if a release is owed or any port has a grantable
        request; otherwise it stays idle until a processor posts one --
        which requires a processor event, so the caller takes the minimum
        with the processors' own next events.
        """
        now = self.clock.cycle
        if now < self._busy_until:
            return self._busy_until
        if self._active_port is not None or self._requesters:
            # A posted request may be one revalidation clears, which only
            # costs a stepped cycle in which arbitration finds nothing --
            # exactly what the stepped engine would do.
            return now
        return NEVER

    # -- per-cycle driver ------------------------------------------------------

    def step(self) -> bool:
        """Advance one cycle; returns True if the bus did anything."""
        if self.busy:
            return True
        if self._active_port is not None:
            # The occupancy just expired: release the requester.
            self._active_port.finish_bus_release()
            self._active_port = None
        winner = self._arbitrate()
        if winner is None:
            return False
        port = self._ports[winner]
        txn = port.take_bus_transaction()
        self._execute(port, txn)
        return True

    def _arbitrate(self) -> CacheId | None:
        """Grant among the requester index's ports.

        Only the ports whose request revalidation can change (the
        ``_sensitive`` sub-set) are asked :meth:`BusPort.has_bus_request`,
        in slot order, which settles them (and re-files them) exactly as
        a poll of every port would: for any other port that poll is the
        identity and answers yes.  The grant, and with a scheduler
        attached the candidate list, then follow :meth:`Arbiter.order`
        over the settled index (a port's slot is its arbiter position).
        """
        requesters = self._requesters
        if not requesters:
            return None
        ports = self._port_list
        for slot in sorted(self._sensitive):
            ports[slot].has_bus_request()
        if not requesters:
            return None
        arbiter = self._arbiter
        assert arbiter is not None
        if len(requesters) == 1:
            # Sole requester: it wins whatever its priority class, and
            # commit advances the round-robin pointer exactly as the
            # general path would.
            (slot,) = requesters
            return arbiter.commit(ports[slot].id)
        high = sorted(self._high)
        order = arbiter.order(sorted(requesters), high)
        index = 0
        if self.scheduler is not None:
            from repro.sim.schedule import ChoiceKind

            # A multi-way arbitration among high-priority requests is the
            # post-unlock waiter wakeup of Section E.4 -- its own named
            # choice point, since lock fairness lives there.
            kind = ChoiceKind.WAITER_WAKE if high else ChoiceKind.BUS_ARB
            if len(order) > 1:
                index = self.scheduler.choose(
                    kind, [ports[slot].id for slot in order],
                    cycle=self.clock.cycle)
        return arbiter.commit(ports[order[index]].id)

    # -- transaction execution --------------------------------------------------

    def _execute(self, port: BusPort, txn: BusTransaction) -> None:
        now = self.clock.cycle
        if self.obs.active:
            # Open the transaction span before snooping so the snoop-time
            # hooks (invalidations, stand-downs, aborts) and the wakeups
            # reported before it closes attach to it as the cause of
            # whatever they force elsewhere.
            self.obs.record_txn_begin(now, txn.op._name_, txn.block,
                                      txn.requester, bus=self.index)

        replies = self._snoop_all(port, txn)
        response = BusResponse.combine(replies, choose=self._choose_source)

        self._absorb_flushes(txn, replies)
        data = self._resolve_data(port, txn, response, replies)

        info = port.on_txn_granted(txn, response, data)

        duration = self._duration(txn, response, replies, info)
        name = txn.op._name_
        self.stats.record_txn(name, duration)
        self._count_events(txn, response)
        if self.obs.active:
            if txn.op is _UNLOCK_BROADCAST:
                self.obs.record_waiters_woken(
                    [cid for cid, reply in replies.items()
                     if reply is SNOOP_UNLOCK_TAKEN], now)
            self.obs.record_bus_txn(now, duration, name, txn.block,
                                    txn.requester, bus=self.index,
                                    outcome=info.outcome._name_)
        self._busy_until = now + duration
        self._active_port = port

    def _choose_source(self, candidates: list[CacheId]) -> CacheId:
        """Resolve a multi-candidate read-source arbitration (Illinois,
        Feature 8 ``ARB``); the default tie-break is the lowest id."""
        if self.scheduler is None or len(candidates) < 2:
            return candidates[0]
        from repro.sim.schedule import ChoiceKind

        index = self.scheduler.choose(ChoiceKind.READ_SOURCE, candidates,
                                      cycle=self.clock.cycle)
        return candidates[index]

    def _snoop_all(
        self, requester: BusPort, txn: BusTransaction
    ) -> dict[CacheId, SnoopReply]:
        """Broadcast ``txn`` to every other port; return the replies
        that are not :data:`SNOOP_MISS`, in port order.  A miss changes
        nothing downstream, so aggregation, flush absorption and timing
        walk only the caches that reacted.  ``port.snoop`` is looked up
        per delivery: every delivery is a real call, whatever wraps it.

        The bus charges directory-duality interference (Feature 3) once
        per broadcast, not once per delivery: the broadcast log counts
        the snoops of every cache but the requester and charges the
        caches that wrote status earlier in the cycle
        (:class:`~repro.cache.directory.BroadcastLog`)."""
        self._broadcasts.record(self.clock.cycle, requester.directory)
        replies: dict[CacheId, SnoopReply] = {}
        for port in self._port_list:
            if port is not requester:
                reply = port.snoop(txn)
                if reply is not SNOOP_MISS:
                    replies[port.id] = reply
        return replies

    def _absorb_flushes(
        self, txn: BusTransaction, replies: dict[CacheId, SnoopReply]
    ) -> None:
        for reply in replies.values():
            if reply.flush_words is not None:
                self.memory.write_block(txn.block, reply.flush_words)
                self.stats.flushes += 1

    def _resolve_data(
        self,
        port: BusPort,
        txn: BusTransaction,
        response: BusResponse,
        replies: dict[CacheId, SnoopReply],
    ) -> list[Stamp] | None:
        if not (txn.op.fetches_block or txn.op is _IO_OUTPUT_READ):
            return None
        if response.locked:
            return None

        # Purged-lock tags in memory (Section E.3 minor modification).
        tag = self.memory.lock_tag(txn.block)
        if tag is not None:
            if tag.owner == txn.requester:
                cleared = self.memory.clear_lock_tag(txn.block)
                assert cleared is not None
                response.memory_lock_owner = True
                response.memory_lock_waiter = cleared.waiter
            else:
                response.memory_locked = True
                self.memory.mark_lock_waiter(txn.block)
                return None

        if response.supplier is not None:
            reply = replies[response.supplier]
            assert reply.data is not None
            self.stats.cache_to_cache_transfers += 1
            if self.obs.active:
                self.obs.record_c2c(txn.block, response.supplier)
            if response.arbitration_candidates:
                self.stats.source_arbitrations += 1
            return list(reply.data)

        data = self.memory.read_block(txn.block)
        self.stats.memory_fetches += 1
        if response.shared_hit and self._tracks_source_loss(port):
            self.stats.source_losses += 1
            if self.obs.active:
                self.obs.record_source_loss(txn.block)
        return data

    def _tracks_source_loss(self, port: BusPort) -> bool:
        protocol = port.protocol
        if protocol is None:
            return False
        policy = protocol.features().read_source_policy
        return policy in _SOURCE_LOSS_POLICIES

    # -- timing -----------------------------------------------------------------

    def _duration(
        self,
        txn: BusTransaction,
        response: BusResponse,
        replies: dict[CacheId, SnoopReply],
        info,
    ) -> int:
        t = self.timing
        wpb = self.memory.words_per_block
        base = self._base_duration(txn, response, replies, t, wpb)
        if info.victim_flush_words:
            base += (
                t.bus_address_cycles
                + t.memory_latency
                + info.victim_flush_words * t.word_transfer_cycles
            )
        if info.lock_spilled:
            base += t.invalidate_cycles
        base += txn.extra_hold_cycles
        return max(1, base)

    def _base_duration(self, txn, response, replies, t: TimingConfig, wpb: int) -> int:
        op = txn.op
        if op in _ADDRESS_ONLY_OPS:
            return t.invalidate_cycles
        if op in _WORD_WRITE_OPS:
            cycles = t.word_write_cycles()
            if any(r.flush_words is not None for r in replies.values()):
                cycles += t.flush_cycles(wpb)
            return cycles
        if op is _MEMORY_RMW:
            return (
                t.bus_address_cycles
                + t.memory_latency
                + 2 * t.word_transfer_cycles
            )
        if op is _FLUSH_BLOCK:
            return t.flush_cycles(wpb)
        if op.fetches_block or op is _IO_OUTPUT_READ:
            if response.locked or response.memory_locked:
                # The refused request consumed only its address cycle.
                return t.invalidate_cycles
            if response.supplier is not None:
                reply = replies[response.supplier]
                words = reply.supply_words_moved or wpb
                cycles = (
                    t.bus_address_cycles
                    + t.cache_supply_latency
                    + words * t.word_transfer_cycles
                    + t.status_transfer_cycles
                )
                if response.arbitration_candidates:
                    cycles += t.source_arbitration_cycles
                if reply.flush_words is not None and not t.flush_concurrent:
                    cycles += t.flush_cycles(wpb)
                return cycles
            words = txn.words_moved or wpb
            cycles = t.bus_address_cycles + t.memory_latency
            cycles += words * t.word_transfer_cycles
            # A snooper that had to flush before memory could serve the
            # request (Synapse's read of a dirty-elsewhere block) costs a
            # full memory write first.
            if any(r.flush_words is not None for r in replies.values()):
                cycles += t.flush_cycles(wpb)
            return cycles
        raise ValueError(f"no duration rule for {op}")

    def _count_events(self, txn: BusTransaction, response: BusResponse) -> None:
        if txn.op is _UNLOCK_BROADCAST:
            self.stats.unlock_broadcasts += 1
            if not response.shared_hit:
                self.stats.spurious_unlock_broadcasts += 1
            if self.obs.active:
                self.obs.record_unlock_broadcast(
                    txn.block, spurious=not response.shared_hit)

