"""Bus transaction vocabulary.

Each transaction is one setting of the processor-memory switch (Section
A.2): the requester broadcasts, every other cache snoops and may respond,
and memory observes.  State changes happen atomically at grant time; the
transaction then occupies the bus for a duration computed from
:class:`~repro.common.config.TimingConfig`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.common.types import BlockAddr, CacheId, IdentityEnum, WordAddr


#: Codes of the operations that fetch a block.
_FETCH_CODES = frozenset({"read", "read-excl", "read-lock"})
#: Codes of the operations that take sole access from every other cache.
_EXCLUSIVE_CODES = frozenset({"read-excl", "read-lock", "upgrade",
                              "write-no-fetch", "io-input"})


class BusOp(IdentityEnum):
    """The bus request codes used across all ten protocols.

    Each member carries two plain flags, set once when the class is
    built and read per transaction: ``fetches_block`` and
    ``wants_exclusive``.
    """

    #: Fetch a block for read (shared-access) privilege.
    READ_BLOCK = "read"
    #: Fetch a block for write (sole-access) privilege; invalidates others.
    READ_EXCL = "read-excl"
    #: Fetch a block for write privilege *and* lock it (the proposal's lock
    #: instruction, Section E.3).
    READ_LOCK = "read-lock"
    #: Gain write privilege for a block already held valid -- the one-cycle
    #: pseudo-write of Feature 4 (Figure 5).
    UPGRADE = "upgrade"
    #: Write one word through to memory, invalidating other copies (classic
    #: scheme, and Goodman's first-write write-through).
    WRITE_WORD = "write-word"
    #: Broadcast-update one word in other caches (Dragon/Firefly/
    #: Rudolph-Segall; also the write-through busy-wait option of E.4).
    UPDATE_WORD = "update-word"
    #: Write a dirty block back to memory (purge flush).
    FLUSH_BLOCK = "flush"
    #: Broadcast that a locked block was unlocked (Section E.4); one cycle.
    UNLOCK_BROADCAST = "unlock-bcast"
    #: Claim write privilege for a whole block without fetching its data
    #: (Feature 9: write-without-fetch).
    WRITE_NO_FETCH = "write-no-fetch"
    #: Record a lock tag in memory when a locked block is purged (E.3).
    MEMORY_LOCK_WRITE = "mem-lock-write"
    #: I/O input: write memory, invalidate all cached copies (E.2).
    IO_INPUT = "io-input"
    #: I/O non-paging output: read without stealing source status (E.2).
    IO_OUTPUT_READ = "io-output-read"
    #: Atomic read-modify-write holding the memory unit throughout
    #: (Feature 6, first method -- Rudolph & Segall).
    MEMORY_RMW = "mem-rmw"

    def __init__(self, code: str) -> None:
        self.fetches_block = code in _FETCH_CODES
        self.wants_exclusive = code in _EXCLUSIVE_CODES


_txn_ids = itertools.count(1)


@dataclass(slots=True)
class BusTransaction:
    """One granted bus transaction."""

    op: BusOp
    block: BlockAddr
    requester: CacheId
    #: Word address for word-granularity operations (write/update word).
    word: WordAddr | None = None
    #: Write stamp carried by word-granularity writes.
    stamp: int | None = None
    #: True when the requester will lock the block on arrival even though
    #: the op is READ_EXCL (RMW cache-hold method), or for READ_LOCK.
    lock_intent: bool = False
    #: High arbitration priority (busy-wait registers, Section E.4).
    high_priority: bool = False
    #: For UPDATE_WORD under Rudolph-Segall: also update invalid copies.
    update_invalid: bool = False
    #: Words actually moved for fetch/flush transactions; ``None`` means a
    #: whole block.  Sub-block transfer units (Section D.3) set this.
    words_moved: int | None = None
    #: Extra bus-held cycles (bus-hold RMW method keeps the bus through the
    #: modify phase, Feature 6).
    extra_hold_cycles: int = 0
    txn_id: int = field(default_factory=lambda: next(_txn_ids))

    def __str__(self) -> str:
        extra = f" word={self.word}" if self.word is not None else ""
        return (
            f"{self.op.value}(block={self.block}{extra}, "
            f"from=cache{self.requester})"
        )


