"""Coherence-protocol interface and shared write-in machinery.

A protocol instance is attached to one cache (``self.cache``) and is the
*brain* of that cache: the cache consults it on every processor access, on
every snooped bus transaction, and when a granted transaction completes.
The base class implements the behaviour common to the full-broadcast,
write-in family of Table 1; concrete protocols override the points where
the papers differ (fill states, snoop supply rules, flush policy, upgrade
paths, locking).

State changes happen *during* the snoop/complete calls -- i.e. atomically
at bus-grant time -- which is exactly the atomic-broadcast property the
paper assumes for single-bus systems (Section A.2).
"""

from __future__ import annotations

import abc
import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, ClassVar

from repro.bus.signals import SnoopReply
from repro.bus.transaction import BusOp, BusTransaction
from repro.cache.state import CacheState
from repro.common.errors import ProgramError, ProtocolError
from repro.common.types import Stamp, WordAddr
from repro.protocols.features import ProtocolFeatures

if TYPE_CHECKING:
    from repro.cache.cache import PendingAccess, SnoopingCache
    from repro.cache.line import CacheLine


@dataclass
class Done:
    """The access completed locally (cache hit, zero bus traffic)."""

    value: Stamp | None = None
    #: The protocol already applied the write itself (classic write-through
    #: applies the local write before the bus word-write serializes).
    write_applied: bool = False


@dataclass
class NeedBus:
    """The access needs a bus transaction before it can complete."""

    op: BusOp
    word: WordAddr | None = None
    stamp: Stamp | None = None
    lock_intent: bool = False
    high_priority: bool = False
    update_invalid: bool = False
    #: Extra bus-held cycles (bus-hold RMW, Feature 6).
    extra_hold: int = 0


#: What a protocol returns from a processor-access hook.
Action = Done | NeedBus


class Outcome(enum.Enum):
    """Result of completing one bus transaction of a pending access."""

    DONE = "done"  # the processor operation finished
    REBUS = "rebus"  # another bus transaction is required (next phase)
    WAIT_LOCK = "wait-lock"  # the block is locked elsewhere; busy-wait


@dataclass
class TxnResult:
    outcome: Outcome
    next_bus: NeedBus | None = None


class CoherenceProtocol(abc.ABC):
    """Base class for all ten reproduced protocols."""

    #: Registry key, e.g. ``"goodman"``.
    name: ClassVar[str] = ""

    def __init__(self, cache: "SnoopingCache") -> None:
        self.cache = cache

    # -- identity ---------------------------------------------------------

    @classmethod
    @abc.abstractmethod
    def features(cls) -> ProtocolFeatures:
        """The protocol's Table-1 column."""

    @classmethod
    def states(cls) -> frozenset[CacheState]:
        return frozenset(cls.features().state_roles)

    @classmethod
    def is_source_state(cls, state: CacheState) -> bool:
        return cls.features().state_role(state) == "S"

    @classmethod
    def supports_lock_state(cls) -> bool:
        return CacheState.LOCK in cls.states()

    # -- processor-side hooks ----------------------------------------------

    def processor_read(
        self, line: "CacheLine | None", addr: WordAddr, private_hint: bool = False
    ) -> Action:
        """A processor read.  Default write-in behaviour: hit on any valid
        state; miss fetches for read privilege."""
        if line is not None and line.state.readable:
            return Done(value=line.read_word(self.cache.offset(addr)))
        return self.read_miss_request(addr, private_hint)

    def processor_write(
        self, line: "CacheLine | None", addr: WordAddr, stamp: Stamp
    ) -> Action:
        """A processor write.  Default write-in behaviour: write locally
        with write/lock privilege; upgrade from read privilege; fetch
        exclusive on a miss.  On ``Done`` (unless ``write_applied``) the
        cache applies the stamped write and marks the line dirty."""
        if line is not None and line.state.writable:
            return Done()
        if line is not None and line.state.readable:
            return self.write_upgrade_request(addr)
        return self.write_miss_request(addr)

    def processor_lock(self, line: "CacheLine | None", addr: WordAddr) -> Action:
        raise ProgramError(
            f"protocol {self.name!r} has no lock instruction; "
            "lower LOCK/UNLOCK to test-and-set for this protocol"
        )

    def processor_unlock(
        self, line: "CacheLine | None", addr: WordAddr, stamp: Stamp
    ) -> Action:
        raise ProgramError(f"protocol {self.name!r} has no unlock instruction")

    def processor_write_block(self, line: "CacheLine | None", addr: WordAddr) -> Action:
        """Write a whole block (save state).  Without Feature 9 the block
        is fetched for write privilege first -- the wasted fetch the
        proposal's write-without-fetch eliminates."""
        if line is not None and line.state.writable:
            return Done()
        return self.write_miss_request(addr)

    # Requests the defaults build; protocols override the targets.

    def read_miss_request(self, addr: WordAddr, private_hint: bool) -> NeedBus:
        return NeedBus(op=BusOp.READ_BLOCK)

    def write_miss_request(self, addr: WordAddr) -> NeedBus:
        return NeedBus(op=BusOp.READ_EXCL)

    def write_upgrade_request(self, addr: WordAddr) -> NeedBus:
        """Write hit with only read privilege: Feature 4's one-cycle
        invalidation (Figure 5: request write privilege only)."""
        return NeedBus(op=BusOp.UPGRADE)

    def revalidate_request(self, need: NeedBus, block) -> NeedBus:
        """Re-check a queued bus request against the cache's own tags just
        before it drives the bus.  A request predicated on holding a valid
        copy (an UPGRADE) whose copy was invalidated while it waited must
        convert to a full miss -- driving the stale invalidation would
        destroy another cache's (possibly dirty) exclusive copy."""
        if need.op is BusOp.UPGRADE and self.cache.line_for(block) is None:
            if need.lock_intent:
                return NeedBus(op=BusOp.READ_LOCK, lock_intent=True,
                               high_priority=need.high_priority)
            return self.write_miss_request(block)
        return need

    # -- requester-side completion ------------------------------------------

    def after_txn(
        self,
        pending: "PendingAccess",
        txn: BusTransaction,
        response,  # BusResponse
        data: list[Stamp] | None,
    ) -> TxnResult:
        """Complete a granted transaction.  The default handles the
        write-in fetch/upgrade patterns; protocols with multi-phase
        operations (Goodman's write miss, Dragon's write miss) override."""
        if txn.op.fetches_block:
            if response.locked or response.memory_locked:
                return TxnResult(Outcome.WAIT_LOCK)
            state = self.fill_state(txn, response)
            assert data is not None
            self.cache.install_block(txn.block, state, data)
            return TxnResult(Outcome.DONE)
        if txn.op is BusOp.UPGRADE:
            line = self.cache.line_for(txn.block)
            if line is None:
                # The copy was invalidated while the upgrade waited for the
                # bus; retry as a full write miss.
                return TxnResult(Outcome.REBUS, self.write_miss_request(txn.block))
            line.state = self.upgrade_state(txn, response)
            return TxnResult(Outcome.DONE)
        raise ProtocolError(f"{self.name}: unexpected transaction {txn}")

    def fill_state(self, txn: BusTransaction, response) -> CacheState:
        """State installed for a fetched block."""
        if txn.op is BusOp.READ_BLOCK:
            return self.read_fill_state(txn, response)
        # Exclusive fetch.  If the supplier handed over dirty data without
        # flushing (Feature 7 NF), the dirtiness must survive the transfer
        # or the only up-to-date copy could later be dropped silently.
        if response.supplier_dirty:
            return CacheState.WRITE_DIRTY
        return CacheState.WRITE_CLEAN  # a following write marks it dirty

    def read_fill_state(self, txn: BusTransaction, response) -> CacheState:
        return CacheState.READ

    def upgrade_state(self, txn: BusTransaction, response) -> CacheState:
        return CacheState.WRITE_CLEAN  # the pending write marks it dirty

    # -- snooper-side -------------------------------------------------------

    def snoop(self, line: "CacheLine", txn: BusTransaction) -> SnoopReply:
        """React to another cache's transaction.  ``line`` is this cache's
        valid line for the block.  Default write-in behaviour:

        * exclusive requests invalidate the copy;
        * read requests downgrade and supply if this cache is the source.
        """
        if txn.op.wants_exclusive:
            return self.snoop_exclusive(line, txn)
        if txn.op is BusOp.READ_BLOCK:
            return self.snoop_read(line, txn)
        if txn.op in (BusOp.WRITE_WORD, BusOp.UPDATE_WORD, BusOp.MEMORY_RMW):
            return self.snoop_word_write(line, txn)
        if txn.op is BusOp.IO_OUTPUT_READ:
            return self.snoop_io_output(line, txn)
        if txn.op in (BusOp.UNLOCK_BROADCAST, BusOp.MEMORY_LOCK_WRITE, BusOp.FLUSH_BLOCK):
            return SnoopReply(hit=False)
        raise ProtocolError(f"{self.name}: cannot snoop {txn}")

    def snoop_exclusive(self, line: "CacheLine", txn: BusTransaction) -> SnoopReply:
        supplies = self.is_source_state(line.state) and txn.op.fetches_block
        reply = SnoopReply(
            hit=True,
            supplies=supplies,
            dirty=line.state.dirty,
            data=line.snapshot() if supplies else None,
            supply_words_moved=self.cache.supply_words_moved(line) if supplies else None,
        )
        if supplies and line.state.dirty and self.flushes_on_transfer():
            reply.flush_words = line.snapshot()
            reply.dirty = False
        self.cache.invalidate_line(line)
        return reply

    def snoop_read(self, line: "CacheLine", txn: BusTransaction) -> SnoopReply:
        if self.is_source_state(line.state):
            reply = SnoopReply(
                hit=True,
                supplies=True,
                dirty=line.state.dirty,
                data=line.snapshot(),
                supply_words_moved=self.cache.supply_words_moved(line),
            )
            if line.state.dirty and self.flushes_on_transfer():
                reply.flush_words = line.snapshot()
                line.state = self.read_downgrade_state(line, flushed=True)
            else:
                line.state = self.read_downgrade_state(line, flushed=False)
            return reply
        line.state = self.read_downgrade_state(line, flushed=False)
        return SnoopReply(hit=True)

    def read_downgrade_state(self, line: "CacheLine", flushed: bool) -> CacheState:
        """State a holder keeps after another cache fetched for read."""
        return CacheState.READ

    def snoop_word_write(self, line: "CacheLine", txn: BusTransaction) -> SnoopReply:
        """Default (write-in family): a word write-through invalidates.

        If this cache turned dirty source after the writer posted its
        write-through (the writer's copy was invalidated while its request
        waited for the bus), the dirty block must be flushed before the
        invalidation destroys the only copy; the word write is applied to
        memory after the flush is absorbed."""
        reply = SnoopReply(hit=True)
        if line.state.dirty and self.is_source_state(line.state):
            reply.flush_words = line.snapshot()
        self.cache.invalidate_line(line)
        return reply

    def snoop_io_output(self, line: "CacheLine", txn: BusTransaction) -> SnoopReply:
        """Special I/O read: the source supplies but keeps source status
        and its state (Section E.2)."""
        if self.is_source_state(line.state):
            return SnoopReply(
                hit=True, supplies=True, dirty=line.state.dirty, data=line.snapshot()
            )
        return SnoopReply(hit=True)

    # -- policy predicates ----------------------------------------------------

    @classmethod
    def flushes_on_transfer(cls) -> bool:
        from repro.protocols.features import FlushPolicy

        return cls.features().flush_policy is FlushPolicy.FLUSH

    # -- purge --------------------------------------------------------------

    def purge_needs_flush(self, line: "CacheLine") -> bool:
        """Whether purging ``line`` must write the block back to memory."""
        return line.state.dirty and self.is_source_state(line.state)
