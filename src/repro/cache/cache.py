"""The snooping cache.

One :class:`SnoopingCache` sits between each processor and the bus.  It
owns the tag/state array, the busy-wait register (Section E.4), and the
directory-interference model (Feature 3); the attached
:class:`~repro.protocols.table.TableProtocol` makes every policy
decision.  The cache is *blocking*: it services one processor operation at
a time (the realistic choice for the mid-1980s designs reproduced here).
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.bus.signals import (
    SNOOP_MISS, SNOOP_NOTHING, SNOOP_UNLOCK_TAKEN, SnoopReply)
from repro.bus.transaction import BusOp, BusTransaction
from repro.cache.busy_wait import BusyWaitRegister, WaitPhase
from repro.cache.directory import DirectoryModel
from repro.cache.line import CacheLine
from repro.cache.organization import CacheArray
from repro.cache.state import CacheState
from repro.common.config import CacheConfig, RmwMethod
from repro.common.errors import ProgramError, ProtocolError
from repro.common.types import BlockAddr, CacheId, Stamp, WordAddr
from repro.obs.null import NULL_OBS
from repro.processor.isa import Op, OpKind
from repro.protocols.base import Done, NeedBus, Outcome

if TYPE_CHECKING:
    from repro.bus.bus import RequesterEntry
    from repro.memory.main_memory import MainMemory
    from repro.obs.core import Observability
    from repro.protocols.table import TableProtocol
    from repro.sim.clock import Clock, StampClock
    from repro.sim.stats import SimStats
    from repro.verify.oracle import WriteOracle


# Enum members bound once: the snoop runs N-1 times per bus
# transaction and the access path once per processor access, and reading
# a member through its class is a Python-level ``EnumType.__getattr__``
# call (DESIGN.md section 4).
_UNLOCK_BROADCAST = BusOp.UNLOCK_BROADCAST
_BUS_READ_LOCK, _BUS_READ_EXCL, _BUS_UPGRADE, _BUS_UPDATE_WORD = (
    BusOp.READ_LOCK, BusOp.READ_EXCL, BusOp.UPGRADE, BusOp.UPDATE_WORD)
_BUS_MEMORY_RMW, _BUS_WRITE_NO_FETCH = (BusOp.MEMORY_RMW,
                                        BusOp.WRITE_NO_FETCH)
#: Detached housekeeping transactions, which complete trivially.
_DETACHED_OPS = (BusOp.UNLOCK_BROADCAST, BusOp.FLUSH_BLOCK,
                 BusOp.MEMORY_LOCK_WRITE)
_IDLE, _FIRED = WaitPhase.IDLE, WaitPhase.FIRED
_OP_READ, _OP_LOCK, _OP_UNLOCK, _OP_RMW, _OP_SAVE_BLOCK, _OP_COMPUTE = (
    OpKind.READ, OpKind.LOCK, OpKind.UNLOCK, OpKind.RMW, OpKind.SAVE_BLOCK,
    OpKind.COMPUTE)
#: Op kinds by how the cache dispatches, counts and completes them.
_READ_KINDS = (OpKind.READ, OpKind.LOCK)
_WRITE_KINDS = (OpKind.WRITE, OpKind.RELEASE)
_STORE_KINDS = (OpKind.WRITE, OpKind.UNLOCK, OpKind.RELEASE)
_WRITE_HIT_KINDS = (OpKind.WRITE, OpKind.UNLOCK, OpKind.RELEASE,
                    OpKind.RMW)
_WRITE_MISS_KINDS = (OpKind.WRITE, OpKind.UNLOCK, OpKind.RELEASE,
                     OpKind.RMW, OpKind.SAVE_BLOCK)
_OPTIMISTIC, _MEMORY_HOLD, _LOCK_STATE, _BUS_HOLD = (
    RmwMethod.OPTIMISTIC, RmwMethod.MEMORY_HOLD, RmwMethod.LOCK_STATE,
    RmwMethod.BUS_HOLD)
_INVALID, _WRITE_CLEAN, _WRITE_DIRTY, _LOCK_WAITER = (
    CacheState.INVALID, CacheState.WRITE_CLEAN, CacheState.WRITE_DIRTY,
    CacheState.LOCK_WAITER)
_OUTCOME_DONE, _REBUS, _WAIT_LOCK = (Outcome.DONE, Outcome.REBUS,
                                     Outcome.WAIT_LOCK)


def _no_processor(completes: bool = False) -> None:
    """The processor hook of a cache driven without a processor model."""


class AccessStatus(enum.Enum):
    DONE = "done"  # completed this cycle (hit); result in op.result
    PENDING = "pending"  # bus transaction(s) required; processor stalls
    WAIT_LOCK = "wait-lock"  # block locked elsewhere; busy-waiting
    ABORT = "abort"  # optimistic RMW lost the block (Feature 6, method 3)


_ACCESS_DONE, _ACCESS_PENDING = AccessStatus.DONE, AccessStatus.PENDING


@dataclass(slots=True)
class PendingAccess:
    """The in-flight processor operation and its current bus phase."""

    op: Op
    request: NeedBus | None
    posted_at: int
    #: The block ``op`` addresses.
    block: BlockAddr
    phase: int = 0
    lock_wait: bool = False
    write_applied: bool = False
    #: The request that was refused because the block was locked; re-posted
    #: at high priority when the unlock broadcast arrives (Figure 9).
    refused_request: NeedBus | None = None
    #: ``refused_request`` with the priority bit asserted, built once per
    #: wait: what every wakeup of the wait re-posts.
    wake_request: NeedBus | None = None
    #: Logical effects applied at grant; the processor may collect the
    #: result once the bus occupancy expires (``completed``).
    ready: bool = False
    completed: bool = False


@dataclass
class CompletionInfo:
    """What completing a transaction implied, for bus timing/stats."""

    outcome: Outcome
    victim_flush_words: int = 0
    lock_spilled: bool = False
    installed: bool = False


@dataclass
class _InstallEffects:
    flush_words: int = 0
    lock_spilled: bool = False


class SnoopingCache:
    """A processor cache on the broadcast bus."""

    def __init__(
        self,
        cache_id: CacheId,
        config: CacheConfig,
        clock: "Clock",
        stamp_clock: "StampClock",
        stats: "SimStats",
        obs: "Observability" = NULL_OBS,
    ) -> None:
        self.id = cache_id
        self.config = config
        self.clock = clock
        self.stamp_clock = stamp_clock
        self.stats = stats
        self.obs = obs
        self.array = CacheArray(config)
        #: The array's interest index (block -> tagged frames and pins),
        #: read directly by the snoop fast-miss test; the armed
        #: busy-wait register pins its block in it.
        self._interest = self.array._interest
        self.busy_wait = BusyWaitRegister()
        self.directory = DirectoryModel(kind=config.directory)
        self.protocol: "TableProtocol | None" = None  # set by the engine
        self.memory: "MainMemory | None" = None  # set by the engine
        self.oracle: "WriteOracle | None" = None  # set by the engine
        self._pending: PendingAccess | None = None
        self._detached: deque[tuple[NeedBus, BlockAddr]] = deque()
        self._install_effects = _InstallEffects()
        #: How atomic read-modify-writes are serialized (Feature 6).
        self.rmw_method = RmwMethod.CACHE_HOLD
        #: Modify-phase cycles for the bus-hold method.
        self.rmw_modify_cycles = 2
        #: Protocol scratch space (e.g. Rudolph-Segall write counters).
        self.scratch: dict = {}
        #: Called *before* the cache changes anything its processor's
        #: per-cycle accounting reads (a lock wait starting or ending),
        #: so the engine can settle the processor's lazily kept
        #: counters; with ``completes=True`` when the processor's access
        #: completes, so the engine also ticks it this cycle.
        self.notify_processor = _no_processor
        #: This cache's place in the fabric's requester index, set at
        #: attach (see :class:`~repro.bus.bus.RequesterEntry`).
        self._requester_entry: "RequesterEntry | None" = None

    # -- small helpers -----------------------------------------------------

    def block_of(self, addr: WordAddr) -> BlockAddr:
        # ``block_of`` inline: the configuration already checked that
        # the block size is positive.
        return addr - addr % self.config.words_per_block

    def offset(self, addr: WordAddr) -> int:
        return addr - self.block_of(addr)

    def line_for(self, block: BlockAddr) -> CacheLine | None:
        return self.array.lookup(block)

    def now(self) -> int:
        return self.clock.cycle

    @property
    def pending(self) -> PendingAccess | None:
        return self._pending

    # -- processor interface -------------------------------------------------

    def access(self, op: Op) -> AccessStatus:
        """Begin a processor operation.  Returns DONE for a hit (result in
        ``op.result``), PENDING when a bus transaction was posted, or
        WAIT_LOCK when the target is locked elsewhere."""
        if self._pending is not None:
            raise ProgramError(
                f"cache {self.id} is blocking: operation already in flight"
            )
        assert self.protocol is not None
        if op.addr is None and op.kind is not _OP_COMPUTE:
            raise ProgramError(f"{op.kind} without address")
        block = self.block_of(op.addr)
        line = self.array.lookup(block)
        cycle = self.clock.cycle
        if line is not None:
            line.last_used = cycle

        action = self._dispatch(op, line)

        if isinstance(action, Done):
            self._count_hit(op, line)
            self._finish_local(op, line, action)
            return _ACCESS_DONE
        self._count_miss(op, line)
        self._pending = PendingAccess(op, action, cycle, block)
        self._sync_request()
        if self.obs.active:
            self.obs.record_request_posted(self.id, op.kind._name_, block,
                                           cycle)
        return _ACCESS_PENDING

    def _dispatch(self, op: Op, line: CacheLine | None) -> Done | NeedBus:
        protocol = self.protocol
        assert protocol is not None
        kind = op.kind
        if kind is _OP_READ:
            return protocol.processor_read(line, op.addr, op.private_hint)
        if kind in _WRITE_KINDS:
            assert op.stamp is not None
            return protocol.processor_write(line, op.addr, op.stamp)
        if kind is _OP_LOCK:
            return protocol.processor_lock(line, op.addr)
        if kind is _OP_UNLOCK:
            assert op.stamp is not None
            return protocol.processor_unlock(line, op.addr, op.stamp)
        if kind is _OP_SAVE_BLOCK:
            return protocol.processor_write_block(line, op.addr)
        if kind is _OP_RMW:
            return self._dispatch_rmw(op, line)
        raise ProgramError(f"cache cannot execute {kind}")

    def _dispatch_rmw(self, op: Op, line: CacheLine | None) -> Done | NeedBus:
        """Route an atomic RMW per the configured Feature-6 method.  An RMW
        is atomic whenever it reads and writes with sole access in a single
        completion; with write privilege in hand that is a hit."""
        assert self.protocol is not None
        method = self.rmw_method
        if method is _MEMORY_HOLD:
            return NeedBus(op=_BUS_MEMORY_RMW, word=op.addr)
        state = line.state if line is not None else None
        if method is _LOCK_STATE and self.protocol.supports_lock_state():
            if state is not None and state.writable:
                return Done()
            if state is not None and state.readable:
                # Figure 5: with a valid copy in hand, request lock
                # privilege only -- never refetch over one's own (possibly
                # dirty-source) data.
                return NeedBus(op=_BUS_UPGRADE, lock_intent=True)
            return NeedBus(op=_BUS_READ_LOCK, lock_intent=True)
        if state is not None and state.writable:
            return Done()
        if state is not None and state.readable:
            need = NeedBus(op=_BUS_UPGRADE)
        else:
            need = NeedBus(op=_BUS_READ_EXCL)
        if method is _BUS_HOLD:
            need.extra_hold = self.rmw_modify_cycles
        return need

    def _count_hit(self, op: Op, line: CacheLine | None) -> None:
        kind = op.kind
        if kind in _READ_KINDS:
            self.stats.read_hits += 1
        elif kind in _WRITE_HIT_KINDS:
            self.stats.write_hits += 1

    def _count_miss(self, op: Op, line: CacheLine | None) -> None:
        valid = line is not None and line.state.valid
        kind = op.kind
        if kind in _READ_KINDS:
            if valid:
                self.stats.read_hits += 1  # e.g. upgrade path still had data
            else:
                self.stats.read_misses += 1
        elif kind in _WRITE_MISS_KINDS:
            if valid:
                self.stats.write_hits += 1  # write hit needing an upgrade
            else:
                self.stats.write_misses += 1

    def _finish_local(self, op: Op, line: CacheLine | None, action: Done) -> None:
        """Apply a locally-completed (hit) operation's effects."""
        kind = op.kind
        if kind in _READ_KINDS:
            assert line is not None
            stamp = line.read_word(self.offset(op.addr))
            op.result = stamp
            self._check_read(op.addr, stamp)
            if kind is _OP_LOCK:
                self.stats.lock_acquisitions += 1
        elif kind in _STORE_KINDS:
            if not action.write_applied:
                assert line is not None and op.stamp is not None
                self.apply_write(line, op.addr, op.stamp)
        elif kind is _OP_RMW:
            assert line is not None
            self._apply_rmw(op, line)
        elif kind is _OP_SAVE_BLOCK:
            assert line is not None
            self._apply_save_block(op, line)

    def _apply_rmw(self, op: Op, line: CacheLine) -> None:
        """Evaluate an atomic read-modify-write at its serialization point."""
        assert op.rmw is not None
        old_stamp = line.read_word(self.offset(op.addr))
        old_value = self.stamp_clock.value_of(old_stamp)
        new_value = op.rmw(old_value)
        if new_value is None:
            op.result = 0
            self.stats.failed_lock_attempts += 1
        else:
            stamp = self.stamp_clock.next_stamp(new_value)
            self.apply_write(line, op.addr, stamp)
            op.result = 1

    def _apply_save_block(self, op: Op, line: CacheLine) -> None:
        """Write every word of the block (Feature 9: save process state)."""
        for offset in range(self.config.words_per_block):
            stamp = self.stamp_clock.next_stamp(op.value)
            self.apply_write(line, line.block + offset, stamp)

    def take_completion(self) -> Op | None:
        """Collect the completed pending operation, if any."""
        pending = self._pending
        if pending is not None and pending.completed:
            self._pending = None
            return pending.op
        return None

    def cancel_wait(self) -> None:
        """Abandon a lock wait (the waiting process was switched out)."""
        if self._pending is None or not self._pending.lock_wait:
            raise ProgramError("no lock wait to cancel")
        self.notify_processor()
        # A lock wait keeps the register armed (or fired) until it ends.
        self.array.unpin(self.busy_wait.block)
        self.busy_wait.clear()
        self._pending = None
        if self.obs.active:
            self.obs.record_wait_cancelled(self.id, self.now())

    @property
    def waiting_for_lock(self) -> bool:
        return self._pending is not None and self._pending.lock_wait

    # -- bus interface: requesting -------------------------------------------

    def has_bus_request(self) -> bool:
        """Is a grantable request posted?  Settles the pending request
        first (:meth:`_revalidate_pending`) when
        :meth:`bus_request_revalidates`; for any other request
        revalidation is the identity."""
        if self.bus_request_revalidates():
            pending = self._pending
            self._revalidate_pending(pending)
            return pending.request is not None
        return self.has_request_hint()

    def has_request_hint(self) -> bool:
        """Is a request posted?  A side-effect-free over-approximation
        of :meth:`has_bus_request`: may say True for a request
        revalidation would clear (optimistic-RMW abort), never False for
        a grantable one.  It is the membership predicate of the bus's
        requester index; arbitration still goes through
        :meth:`has_bus_request`, which settles the truth before any
        grant."""
        if self._detached:
            return True
        pending = self._pending
        return pending is not None and pending.request is not None

    def current_request_block(self) -> BlockAddr | None:
        """Block the cache's current bus request targets (the detached
        queue's head first) -- used by multi-bus systems to route the
        request to the bus owning that block."""
        if self._detached:
            return self._detached[0][1]
        pending = self._pending
        if pending is not None and pending.request is not None:
            return pending.block
        return None

    def bus_request_revalidates(self) -> bool:
        """Would :meth:`has_bus_request` revalidate the current request
        (its op is in the protocol's ``revalidated_ops``)?  Any other
        posted request is grantable as it stands."""
        if self._detached:
            return False
        pending = self._pending
        return (pending is not None and pending.request is not None
                and pending.request.op in self.protocol.revalidated_ops)

    def route_requests(self, entry: "RequesterEntry") -> None:
        self._requester_entry = entry
        self._sync_request()

    def _sync_request(self) -> None:
        """Re-file this cache in the requester index after a change to
        its posted request: under the bus owning the request's block,
        with the request's priority bit and whether it revalidates, or
        under none.  The filing is what :meth:`current_request_block`,
        :meth:`bus_request_priority` and :meth:`bus_request_revalidates`
        answer, read off the request directly: this runs on every
        change to a posted request."""
        entry = self._requester_entry
        if entry is None:
            return
        detached = self._detached
        if detached:
            # A detached request neither asserts priority nor revalidates.
            entry.place(True, detached[0][1])
            return
        pending = self._pending
        request = pending.request if pending is not None else None
        if request is None:
            entry.place(False)
        else:
            entry.place(True, pending.block, request.high_priority,
                        request.op in self.protocol.revalidated_ops)

    def _revalidate_pending(self, pending: PendingAccess) -> None:
        """Re-check the queued request against our own tags (idempotent)."""
        assert self.protocol is not None and pending.request is not None
        need = pending.request
        if (
            need.op is _BUS_UPGRADE
            and pending.op.kind is _OP_RMW
            and self.rmw_method is _OPTIMISTIC
            and self.line_for(pending.block) is None
        ):
            # The block was stolen between the read and the write: the
            # optimistic RMW aborts without touching the bus (Feature 6).
            self.notify_processor(completes=True)
            self.stats.rmw_aborts += 1
            pending.op.aborted = True
            pending.request = None
            pending.ready = True
            pending.completed = True
            self._sync_request()
            if self.obs.active:
                self.obs.record_request_aborted(self.id, self.now())
            return
        pending.request = self.protocol.revalidate_request(need,
                                                           pending.block)
        # A converted request may differ in priority and in whether it
        # revalidates: re-file it.
        self._sync_request()

    def bus_request_priority(self) -> bool:
        if self._detached:
            return False
        assert self._pending is not None and self._pending.request is not None
        return self._pending.request.high_priority

    def take_bus_transaction(self) -> BusTransaction:
        """Convert the current request into a granted bus transaction."""
        if self._detached:
            need, block = self._detached.popleft()
            self._sync_request()
            return self._build_txn(need, block)
        pending = self._pending
        assert pending is not None and pending.request is not None
        now = self.clock.cycle
        self.stats.bus_wait_cycles += max(0, now - pending.posted_at)
        self.stats.bus_waits += 1
        pending.posted_at = now  # re-posted for multi-phase ops
        return self._build_txn(pending.request, pending.block)

    def _build_txn(self, need: NeedBus, block: BlockAddr) -> BusTransaction:
        words_moved = None
        if need.op.fetches_block and self.config.transfer_unit_words is not None:
            words_moved = self.config.transfer_unit_words
        return BusTransaction(
            op=need.op,
            block=block,
            requester=self.id,
            word=need.word,
            stamp=need.stamp,
            lock_intent=need.lock_intent,
            high_priority=need.high_priority,
            update_invalid=need.update_invalid,
            words_moved=words_moved,
            extra_hold_cycles=need.extra_hold,
        )

    def queue_detached(self, need: NeedBus, block: BlockAddr) -> None:
        """Post a bus request not tied to the pending processor op (the
        unlock broadcast of Section E.4)."""
        self._detached.append((need, block))
        self._sync_request()

    # -- bus interface: completing a granted transaction ----------------------

    def on_txn_granted(
        self, txn: BusTransaction, response, data: list[Stamp] | None
    ) -> CompletionInfo:
        """Called by the bus at grant time, after snoop aggregation."""
        assert self.protocol is not None
        self._install_effects = _InstallEffects()
        op = txn.op

        if op in _DETACHED_OPS:
            # Detached housekeeping transactions complete trivially.
            return CompletionInfo(outcome=_OUTCOME_DONE)

        pending = self._pending
        if pending is None:
            raise ProtocolError(f"cache {self.id}: grant with no pending op: {txn}")

        if op is _BUS_MEMORY_RMW:
            return CompletionInfo(
                outcome=_OUTCOME_DONE,
                victim_flush_words=self._apply_memory_rmw(pending, txn))

        result = self.protocol.after_txn(pending, txn, response, data)
        outcome = result.outcome

        if outcome is _WAIT_LOCK:
            self._enter_lock_wait(txn)
            return CompletionInfo(outcome=_WAIT_LOCK)

        if outcome is _REBUS:
            assert result.next_bus is not None
            if (
                pending.op.kind is _OP_RMW
                and self.rmw_method is _OPTIMISTIC
                and op is _BUS_UPGRADE
            ):
                # The block was stolen between the read and the write:
                # atomicity is violated, the instruction aborts (Feature 6,
                # third method).
                self.stats.rmw_aborts += 1
                pending.op.aborted = True
                pending.request = None
                pending.ready = True
                self._sync_request()
                return CompletionInfo(outcome=_OUTCOME_DONE)
            pending.request = result.next_bus
            pending.phase += 1
            self._sync_request()
            return CompletionInfo(outcome=_REBUS)

        # DONE: apply the processor-visible effect of the operation.
        self._finish_pending(pending, txn, response)
        effects = self._install_effects
        return CompletionInfo(
            outcome=_OUTCOME_DONE,
            victim_flush_words=effects.flush_words,
            lock_spilled=effects.lock_spilled,
            installed=True,
        )

    def _enter_lock_wait(self, txn: BusTransaction) -> None:
        pending = self._pending
        assert pending is not None
        self.notify_processor()
        if pending.request is not None:
            pending.refused_request = pending.request
            pending.wake_request = pending.request.prioritized()
        pending.request = None
        pending.lock_wait = True
        self._sync_request()
        if not self.busy_wait.active:
            self.busy_wait.arm(txn.block, self.now())
            self.array.pin(txn.block)
        else:
            # Re-arm after losing post-unlock arbitration to a new locker.
            self.busy_wait.lost_arbitration()
        self.stats.lock_waits_started += 1
        if self.obs.active:
            self.obs.record_wait_start(self.id, txn.block, self.now())

    def _finish_pending(self, pending: PendingAccess, txn: BusTransaction,
                        response) -> None:
        pending.request = None  # consumed; do not re-arbitrate
        self._sync_request()
        op = pending.op
        block = txn.block
        wait = self.busy_wait
        if wait.phase is not _IDLE and wait.block == block:
            # Whatever op was waiting (lock, read, write, RMW) has now
            # completed: stop watching for unlock broadcasts.
            wait.clear()
            self.array.unpin(block)
        line = self.array.lookup(block)
        kind = op.kind
        if kind in _READ_KINDS:
            assert line is not None
            stamp = line.read_word(self.offset(op.addr))
            op.result = stamp
            self._check_read(op.addr, stamp)
            if kind is _OP_LOCK:
                self.stats.lock_acquisitions += 1
        elif kind in _STORE_KINDS:
            if not pending.write_applied:
                assert line is not None and op.stamp is not None
                self.apply_write(line, op.addr, op.stamp)
        elif kind is _OP_RMW:
            assert line is not None
            self._apply_rmw(op, line)
            if line.state.locked:
                # Lock-state RMW (Feature 6, fourth method): the lock taken
                # at the read is released at the write, in zero time.
                self._unlock_after_rmw(line)
        elif kind is _OP_SAVE_BLOCK:
            assert line is not None
            self._apply_save_block(op, line)
            if txn.op is _BUS_WRITE_NO_FETCH:
                self.stats.fetches_avoided += 1
        pending.ready = True

    def _unlock_after_rmw(self, line: CacheLine) -> None:
        if line.state is _LOCK_WAITER:
            self.queue_detached(NeedBus(op=_UNLOCK_BROADCAST), line.block)
            if self.obs.active:
                self.obs.record_unlock_queued(self.id, line.block, self.now())
        line.state = _WRITE_DIRTY

    def _apply_memory_rmw(self, pending: PendingAccess, txn: BusTransaction) -> int:
        """Memory-hold RMW (Feature 6, first method): read-modify-write the
        word in main memory while holding bus and memory; the data is not
        cached, and any local copy is now stale.

        A dirty local copy is the latest data, so it is written back
        before the read; returns the words flushed, which the bus charges
        as it charges a victim flush."""
        assert self.memory is not None and self.protocol is not None
        op = pending.op
        assert op.rmw is not None and op.addr is not None
        offset = self.offset(op.addr)
        line = self.line_for(txn.block)
        flush_words = 0
        if line is not None and self.protocol.purge_needs_flush(line):
            self.memory.write_block(txn.block, line.snapshot())
            self.stats.flushes += 1
            flush_words = self._flush_word_count(line)
        old_stamp = self.memory.read_word(txn.block, offset)
        old_value = self.stamp_clock.value_of(old_stamp)
        new_value = op.rmw(old_value)
        if new_value is None:
            op.result = 0
            self.stats.failed_lock_attempts += 1
        else:
            stamp = self.stamp_clock.next_stamp(new_value)
            self.memory.write_word(txn.block, offset, stamp)
            if self.oracle is not None:
                self.oracle.record_write(op.addr, stamp)
            op.result = 1
        if line is not None:
            self.invalidate_line(line)
        pending.request = None
        pending.ready = True
        self._sync_request()
        return flush_words

    def finish_bus_release(self) -> None:
        """Called by the bus when this port's transaction occupancy ends."""
        pending = self._pending
        if pending is not None and pending.ready:
            self.notify_processor(completes=True)
            pending.completed = True

    # -- bus interface: snooping ----------------------------------------------

    def cares_about(self, block: int) -> bool:
        """Would this cache react to a transaction on ``block``?

        True when a frame is tagged with the block (valid or invalid,
        which also covers the update-invalid revalidation scan) or the
        busy-wait register watches the block: exactly when the block is
        in the array's interest index.  The index changes at two kinds
        of point -- a tag re-assigned by :meth:`CacheArray.install`, and
        the register's arm in :meth:`_enter_lock_wait` and clear in
        :meth:`_finish_pending` and :meth:`cancel_wait` -- and the
        invariant checker compares it with the two sources every
        ``check_interval`` cycles.

        This is the membership predicate the directory fabric uses to
        keep sharer sets honest, and the probe :meth:`snoop` makes
        inline for its fast miss (which additionally exempts unlock
        broadcasts, always taking the full path) -- the two must stay
        one decision for directory pruning to be sound, which
        ``tests/cache/test_snoop_fast_miss.py`` checks against the
        two-source definition.
        """
        return block in self._interest

    def snoop(self, txn: BusTransaction) -> SnoopReply:
        """React to another cache's granted transaction.

        This runs on N-1 caches per bus transaction, so the common case
        is one probe: a cache that does not :meth:`cares_about` the
        block returns the shared :data:`SNOOP_MISS` without consulting
        its protocol.  The directory consultation is charged by the
        fabric that delivers the snoop (see
        :mod:`repro.cache.directory`), not here.
        """
        block = txn.block
        op = txn.op
        if block not in self._interest and op is not _UNLOCK_BROADCAST:
            return SNOOP_MISS

        assert self.protocol is not None
        if op is _UNLOCK_BROADCAST:
            return self._snoop_unlock_broadcast(txn)

        wait = self.busy_wait
        if op is _BUS_READ_LOCK and wait.phase is _FIRED and wait.block == block:
            # Another waiter won the post-unlock arbitration (Figure 9):
            # stand down and keep waiting; no bus access.  The snoop still
            # proceeds below (a waiting cache holds no copy of the block,
            # so this is normally a miss -- but the tag array, not the
            # register, decides).
            wait.lost_arbitration()
            pending = self._pending
            if pending is not None and pending.lock_wait is False:
                self.notify_processor()
                pending.request = None
                pending.lock_wait = True
                self._sync_request()
                if self.obs.active:
                    self.obs.record_wait_rearmed(self.id, self.now())

        line = self.array.lookup(block)
        if line is None:
            if op is _BUS_UPDATE_WORD and txn.update_invalid:
                return self._update_invalid_copy(txn)
            return SNOOP_NOTHING
        return self.protocol.snoop(line, txn)

    def _snoop_unlock_broadcast(self, txn: BusTransaction) -> SnoopReply:
        if self.busy_wait.notice_unlock(txn.block):
            pending = self._pending
            assert pending is not None and pending.wake_request is not None
            self.notify_processor()
            pending.lock_wait = False
            pending.request = pending.wake_request
            self._sync_request()
            pending.posted_at = self.clock.cycle  # bus wait from the wakeup
            # Tells the bus the unlock was taken up; the bus reports the
            # wakeups it collects to the observer in one call.
            return SNOOP_UNLOCK_TAKEN
        return SNOOP_NOTHING

    def _update_invalid_copy(self, txn: BusTransaction) -> SnoopReply:
        """Rudolph-Segall: a write-through updates invalid copies too,
        revalidating them (Section E.4)."""
        for line in self.array.set_of(txn.block):
            if not line.valid and line.block == txn.block and line.words:
                assert txn.word is not None and txn.stamp is not None
                line.write_word(self.offset(txn.word), txn.stamp)
                line.state = CacheState.READ
                self.stats.updates_received += 1
                return SNOOP_NOTHING
        return SNOOP_NOTHING

    # -- services used by protocols --------------------------------------------

    def install_block(
        self, block: BlockAddr, state: CacheState, words: list[Stamp]
    ) -> CacheLine:
        """Install a fetched block, purging (and flushing) a victim."""
        existing = self.array.lookup(block)
        if existing is not None:
            existing.state = state
            existing.fill(words)
            self.array.touch(existing, self.now())
            return existing
        victim = self.array.choose_victim(block)
        if victim.valid:
            self._purge(victim)
        return self.array.install(victim, block, state, words, self.now())

    def _purge(self, victim: CacheLine) -> None:
        assert self.protocol is not None and self.memory is not None
        self.stats.purges += 1
        if victim.locked:
            # Section E.3 "minor modification": spill the lock to memory.
            self.memory.write_lock_tag(victim.block, self.id)
            if victim.state is _LOCK_WAITER:
                self.memory.mark_lock_waiter(victim.block)
            self.memory.write_block(victim.block, victim.snapshot())
            self.stats.memory_lock_writes += 1
            self.stats.flushes += 1
            self._install_effects.lock_spilled = True
            self._install_effects.flush_words += self.config.words_per_block
            if self.obs.active:
                self.obs.record_lock_spill(self.id, victim.block, self.now())
        elif self.protocol.purge_needs_flush(victim):
            self.memory.write_block(victim.block, victim.snapshot())
            self.stats.flushes += 1
            self._install_effects.flush_words += self._flush_word_count(victim)
        victim.state = _INVALID

    def _flush_word_count(self, line: CacheLine) -> int:
        if self.config.transfer_unit_words is None or line.unit_dirty is None:
            return self.config.words_per_block
        dirty_units = sum(1 for d in line.unit_dirty if d)
        return max(1, dirty_units) * self.config.transfer_unit_words

    def invalidate_line(self, line: CacheLine) -> None:
        if line.locked:
            raise ProtocolError(
                f"cache {self.id}: attempt to invalidate locked block {line.block}"
            )
        line.state = _INVALID
        self.stats.invalidations_received += 1
        if self.obs.active:
            self.obs.record_invalidation(line.block, self.id)

    def apply_write(self, line: CacheLine, addr: WordAddr, stamp: Stamp) -> None:
        """Apply a stamped write to a line the processor may write, marking
        dirtiness and notifying the oracle (this is the serialization point
        for exclusive-privilege writes)."""
        offset = self.offset(addr)
        line.write_word(offset, stamp)
        self._mark_unit_dirty(line, offset)
        self._mark_dirty(line)
        if self.oracle is not None:
            self.oracle.record_write(addr, stamp)

    def apply_foreign_update(self, line: CacheLine, word: WordAddr, stamp: Stamp) -> None:
        """Apply a snooped word update (write-update protocols)."""
        line.write_word(self.offset(word), stamp)
        self.stats.updates_received += 1

    def _mark_unit_dirty(self, line: CacheLine, offset: int) -> None:
        tu = self.config.transfer_unit_words
        if tu is None:
            return
        n_units = self.config.words_per_block // tu
        if line.unit_dirty is None:
            line.unit_dirty = [False] * n_units
        line.unit_dirty[offset // tu] = True

    def _mark_dirty(self, line: CacheLine) -> None:
        state = line.state
        if state is _WRITE_CLEAN:
            line.state = _WRITE_DIRTY
            self.stats.write_hits_to_clean += 1
            self.directory.record_status_write(self.clock.cycle)
        elif state.writable:
            pass  # write-dirty, lock, lock-waiter: already dirty
        elif state.readable:
            raise ProtocolError(
                f"cache {self.id}: write applied without write privilege "
                f"(state {state})"
            )
        else:
            raise ProtocolError(f"cache {self.id}: write to invalid line")

    def _check_read(self, addr: WordAddr, stamp: Stamp) -> None:
        if self.oracle is not None:
            self.oracle.check_read(addr, stamp, cache_id=self.id, cycle=self.now())

    def supply_words_moved(self, line: CacheLine) -> int | None:
        """Words a cache-to-cache supply moves under sub-block transfer
        units: the requested unit plus every dirty unit (Section D.3)."""
        tu = self.config.transfer_unit_words
        if tu is None:
            return None
        dirty_units = sum(1 for d in (line.unit_dirty or []) if d)
        return max(1, dirty_units) * tu
