"""The paper's proposed protocol (Sections E and F, Table 1 last column).

Eight states (Section E.1), cache-state locking in zero time (E.3, the
``lock-in-place`` action), efficient busy wait via the lock-waiter state
and busy-wait register (E.4, the ``refuse-lock`` action and the
``won-wait`` guard), dynamic fetch-for-write on read miss (Figure 1, the
``unshared`` guard -- Feature 5 ``D``), no flush on cache-to-cache
transfer with status carried along (Feature 7 ``NF,S``),
last-fetcher-becomes-source (Feature 8 ``LRU,MEM``), and
write-without-fetch (Feature 9, ``bus:write-no-fetch``).

A lock whose block was purged spills its lock tag to memory (E.3); the
``mem-owner``/``mem-waiter`` guards on the fill rows re-establish the
in-cache lock state when the owner touches the block again.  The only
procedural remnant on top of the table is the multi-phase unlock of a
spilled lock: refetch with lock, then apply the final write and release
(the :meth:`~BitarDespainProtocol.after_fill` override).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.cache.state import CacheState
from repro.processor.isa import OpKind
from repro.protocols.base import NeedBus
from repro.protocols.features import (
    DirectoryDuality,
    FlushPolicy,
    ProtocolFeatures,
    ReadSourcePolicy,
    SharingDetermination,
)
from repro.protocols.table import Event, TableProtocol, TransitionTable, rule
from repro.bus.transaction import BusOp

if TYPE_CHECKING:
    from repro.cache.cache import PendingAccess
    from repro.cache.line import CacheLine

_FEATURES = ProtocolFeatures(
    name="Our proposal (Bitar & Despain)",
    citation="Bitar, Despain 1986",
    year=1986,
    distributed_state="RWLDS",
    directory=DirectoryDuality.NON_IDENTICAL_DUAL,
    bus_invalidate_signal=True,
    fetch_for_write_on_read_miss=SharingDetermination.DYNAMIC,
    atomic_rmw=True,
    flush_policy=FlushPolicy.NO_FLUSH_WITH_STATUS,
    read_source_policy=ReadSourcePolicy.LRU,
    write_without_fetch=True,
    efficient_busy_wait=True,
    state_roles={
        CacheState.INVALID: "N",
        CacheState.READ: "N",
        CacheState.READ_SOURCE_CLEAN: "S",
        CacheState.READ_SOURCE_DIRTY: "S",
        CacheState.WRITE_CLEAN: "S",
        CacheState.WRITE_DIRTY: "S",
        CacheState.LOCK: "S",
        CacheState.LOCK_WAITER: "S",
    },
)

_I = CacheState.INVALID
_R = CacheState.READ
_RSC = CacheState.READ_SOURCE_CLEAN
_RSD = CacheState.READ_SOURCE_DIRTY
_WC = CacheState.WRITE_CLEAN
_WD = CacheState.WRITE_DIRTY
_L = CacheState.LOCK
_LW = CacheState.LOCK_WAITER

_TABLE = TransitionTable(
    "bitar-despain",
    [
        # processor reads
        rule(_L, Event.PR_READ, _L, ["hit"]),
        rule(_LW, Event.PR_READ, _LW, ["hit"]),
        rule(_WD, Event.PR_READ, _WD, ["hit"]),
        rule(_WC, Event.PR_READ, _WC, ["hit"]),
        rule(_RSD, Event.PR_READ, _RSD, ["hit"]),
        rule(_RSC, Event.PR_READ, _RSC, ["hit"]),
        rule(_R, Event.PR_READ, _R, ["hit"]),
        rule(_I, Event.PR_READ, _I, ["bus:read"]),
        # processor writes
        rule(_L, Event.PR_WRITE, _L, ["hit"]),
        rule(_LW, Event.PR_WRITE, _LW, ["hit"]),
        rule(_WD, Event.PR_WRITE, _WD, ["hit"]),
        rule(_WC, Event.PR_WRITE, _WD, ["hit"]),
        rule(_RSD, Event.PR_WRITE, _RSD, ["bus:upgrade"]),
        rule(_RSC, Event.PR_WRITE, _RSC, ["bus:upgrade"]),
        rule(_R, Event.PR_WRITE, _R, ["bus:upgrade"]),
        rule(_I, Event.PR_WRITE, _I, ["bus:read-excl"]),
        # the lock instruction (Figure 6): zero-time with write privilege
        rule(_L, Event.PR_LOCK, _L, ["error:nested-lock"]),
        rule(_LW, Event.PR_LOCK, _LW, ["error:nested-lock"]),
        rule(_WD, Event.PR_LOCK, _L, ["lock-in-place"]),
        rule(_WC, Event.PR_LOCK, _L, ["lock-in-place"]),
        rule(_RSD, Event.PR_LOCK, _RSD, ["bus:upgrade"]),
        rule(_RSC, Event.PR_LOCK, _RSC, ["bus:upgrade"]),
        rule(_R, Event.PR_LOCK, _R, ["bus:upgrade"]),
        rule(_I, Event.PR_LOCK, _I, ["bus:read-lock"]),
        # the unlock instruction (Figure 8): the final write to the
        # locked block; broadcast only if a waiter was recorded.  A
        # spilled lock refetches with lock, then unlocks (multi-phase).
        rule(_L, Event.PR_UNLOCK, _WD, ["apply-write"]),
        rule(_LW, Event.PR_UNLOCK, _WD,
             ["apply-write", "broadcast-unlock"]),
        rule(_WD, Event.PR_UNLOCK, _WD, ["error:not-locked"]),
        rule(_WC, Event.PR_UNLOCK, _WC, ["error:not-locked"]),
        rule(_RSD, Event.PR_UNLOCK, _RSD, ["error:not-locked"]),
        rule(_RSC, Event.PR_UNLOCK, _RSC, ["error:not-locked"]),
        rule(_R, Event.PR_UNLOCK, _R, ["error:not-locked"]),
        rule(_I, Event.PR_UNLOCK, _I, ["bus:read-lock"]),
        # block writes: write-without-fetch on a miss (Feature 9)
        rule(_L, Event.PR_WRITE_BLOCK, _L, ["hit"]),
        rule(_LW, Event.PR_WRITE_BLOCK, _LW, ["hit"]),
        rule(_WD, Event.PR_WRITE_BLOCK, _WD, ["hit"]),
        rule(_WC, Event.PR_WRITE_BLOCK, _WD, ["hit"]),
        rule(_RSD, Event.PR_WRITE_BLOCK, _RSD, ["bus:write-no-fetch"]),
        rule(_RSC, Event.PR_WRITE_BLOCK, _RSC, ["bus:write-no-fetch"]),
        rule(_R, Event.PR_WRITE_BLOCK, _R, ["bus:write-no-fetch"]),
        rule(_I, Event.PR_WRITE_BLOCK, _I, ["bus:write-no-fetch"]),
        # atomic RMW (Feature 6, lock-state method): documentation rows
        # -- the engine lowers RMW to the lock/unlock instruction pair.
        rule(_WD, Event.PR_RMW, _L, ["lock-in-place"]),
        rule(_WC, Event.PR_RMW, _L, ["lock-in-place"]),
        rule(_RSD, Event.PR_RMW, _RSD, ["bus:upgrade"]),
        rule(_RSC, Event.PR_RMW, _RSC, ["bus:upgrade"]),
        rule(_R, Event.PR_RMW, _R, ["bus:upgrade"]),
        rule(_I, Event.PR_RMW, _I, ["bus:read-lock"]),
        # read fills (Figure 1): the owner of a spilled lock
        # re-establishes the lock state; otherwise no other holder means
        # write privilege, and the last fetcher becomes the source
        # (Feature 8 LRU) with status carried along.
        rule(_I, Event.FILL_READ, _LW, when=["mem-owner", "mem-waiter"]),
        rule(_I, Event.FILL_READ, _L, when=["mem-owner", "no-mem-waiter"]),
        rule(_I, Event.FILL_READ, _WC, when=["mem-other", "unshared"]),
        rule(_I, Event.FILL_READ, _RSD,
             when=["mem-other", "shared", "dirty-supplier"]),
        rule(_I, Event.FILL_READ, _RSC,
             when=["mem-other", "shared", "clean-supplier"]),
        # exclusive fills: dirtiness survives (no flush on transfer)
        rule(_I, Event.FILL_EXCL, _LW, when=["mem-owner", "mem-waiter"]),
        rule(_I, Event.FILL_EXCL, _L, when=["mem-owner", "no-mem-waiter"]),
        rule(_I, Event.FILL_EXCL, _WD, when=["mem-other", "dirty-supplier"]),
        rule(_I, Event.FILL_EXCL, _WC, when=["mem-other", "clean-supplier"]),
        # lock fills (Figure 9): a busy-wait win or a recorded memory
        # waiter means more waiters probably exist -- enter lock-waiter,
        # "since that will probably be appropriate".
        rule(_I, Event.FILL_LOCK, _LW, when=["mem-owner", "mem-waiter"]),
        rule(_I, Event.FILL_LOCK, _L, when=["mem-owner", "no-mem-waiter"]),
        rule(_I, Event.FILL_LOCK, _LW, when=["mem-other", "won-wait"]),
        rule(_I, Event.FILL_LOCK, _LW,
             when=["mem-other", "not-won-wait", "mem-waiter"]),
        rule(_I, Event.FILL_LOCK, _L,
             when=["mem-other", "not-won-wait", "no-mem-waiter"]),
        # upgrade completion: a one-cycle invalidation; with lock intent
        # the copy locks as it upgrades.
        rule(_RSD, Event.DONE_UPGRADE, _L, when=["lock-intent"]),
        rule(_RSC, Event.DONE_UPGRADE, _L, when=["lock-intent"]),
        rule(_R, Event.DONE_UPGRADE, _L, when=["lock-intent"]),
        rule(_RSD, Event.DONE_UPGRADE, _WC, when=["no-lock-intent"]),
        rule(_RSC, Event.DONE_UPGRADE, _WC, when=["no-lock-intent"]),
        rule(_R, Event.DONE_UPGRADE, _WC, when=["no-lock-intent"]),
        rule(_I, Event.DONE_UPGRADE, _I, ["rebus:read-lock"],
             when=["lock-intent"]),
        rule(_I, Event.DONE_UPGRADE, _I, ["rebus:read-excl"],
             when=["no-lock-intent"]),
        # write-without-fetch completion: overwrites everywhere
        rule(_RSD, Event.DONE_WRITE_NO_FETCH, _WC),
        rule(_RSC, Event.DONE_WRITE_NO_FETCH, _WC),
        rule(_R, Event.DONE_WRITE_NO_FETCH, _WC),
        rule(_I, Event.DONE_WRITE_NO_FETCH, _WC),
        # snooping a foreign read: a locked holder refuses and records
        # the waiter (Figure 7); sources supply without flushing and the
        # fetcher takes over source status (LRU across caches).
        rule(_L, Event.SN_READ, _LW, ["refuse-lock"]),
        rule(_LW, Event.SN_READ, _LW, ["refuse-lock"]),
        rule(_WD, Event.SN_READ, _R, ["supply"]),
        rule(_WC, Event.SN_READ, _R, ["supply"]),
        rule(_RSD, Event.SN_READ, _R, ["supply"]),
        rule(_RSC, Event.SN_READ, _R, ["supply"]),
        rule(_R, Event.SN_READ, _R),
        # snooping a foreign exclusive or lock fetch
        rule(_L, Event.SN_EXCL, _LW, ["refuse-lock"]),
        rule(_LW, Event.SN_EXCL, _LW, ["refuse-lock"]),
        rule(_WD, Event.SN_EXCL, _I, ["supply"]),
        rule(_WC, Event.SN_EXCL, _I, ["supply"]),
        rule(_RSD, Event.SN_EXCL, _I, ["supply"]),
        rule(_RSC, Event.SN_EXCL, _I, ["supply"]),
        rule(_R, Event.SN_EXCL, _I),
        # snooping a foreign upgrade
        rule(_L, Event.SN_UPGRADE, _LW, ["refuse-lock"]),
        rule(_LW, Event.SN_UPGRADE, _LW, ["refuse-lock"]),
        rule(_WD, Event.SN_UPGRADE, _I),
        rule(_WC, Event.SN_UPGRADE, _I),
        rule(_RSD, Event.SN_UPGRADE, _I),
        rule(_RSC, Event.SN_UPGRADE, _I),
        rule(_R, Event.SN_UPGRADE, _I),
        # snooping a foreign write-without-fetch: not a fetch and not an
        # upgrade, so a locked holder does NOT refuse -- invalidating a
        # locked line is a protocol error the machinery reports.
        rule(_L, Event.SN_WRITE_NO_FETCH, _I),
        rule(_LW, Event.SN_WRITE_NO_FETCH, _I),
        rule(_WD, Event.SN_WRITE_NO_FETCH, _I),
        rule(_WC, Event.SN_WRITE_NO_FETCH, _I),
        rule(_RSD, Event.SN_WRITE_NO_FETCH, _I),
        rule(_RSC, Event.SN_WRITE_NO_FETCH, _I),
        rule(_R, Event.SN_WRITE_NO_FETCH, _I),
    ],
    errors={
        "nested-lock": (
            "cache {cache}: lock of already-locked block {block} "
            "(nested locks on one block are not supported)"
        ),
        "not-locked": (
            "cache {cache}: unlock of block {block} which is not locked "
            "here (state {state})"
        ),
    },
)


class BitarDespainProtocol(TableProtocol):
    """Full-broadcast write-in protocol with lock and lock-waiter states."""

    name = "bitar-despain"
    table = _TABLE

    @classmethod
    def features(cls) -> ProtocolFeatures:
        return _FEATURES

    # -- procedural remnant: multi-phase unlock of a spilled lock ---------

    def after_fill(self, pending: "PendingAccess",
                   line: "CacheLine") -> None:
        if pending.op.kind is not OpKind.UNLOCK:
            return
        # Refetched a spilled lock in order to unlock it.
        assert pending.op.stamp is not None and pending.op.addr is not None
        self.cache.apply_write(line, pending.op.addr, pending.op.stamp)
        self._release(line)
        pending.write_applied = True

    def _release(self, line: "CacheLine") -> None:
        if line.state is CacheState.LOCK_WAITER:
            self.cache.queue_detached(
                NeedBus(op=BusOp.UNLOCK_BROADCAST), line.block
            )
            if self.cache.obs.active:
                # Ties the upcoming broadcast span back to this release,
                # so a handoff chain is traceable hold -> broadcast ->
                # woken waiter's retry -> next hold.
                self.cache.obs.record_unlock_queued(
                    self.cache.id, line.block, self.cache.now())
        line.state = CacheState.WRITE_DIRTY
