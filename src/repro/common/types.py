"""Fundamental value types shared by every subsystem.

The simulator addresses memory in *words*.  A cache block (line) holds
``words_per_block`` consecutive words; block addresses are word addresses
rounded down to a block boundary.  All identifiers are plain ints so that
they can be used freely as dict keys and in numpy arrays.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

# Type aliases -- used pervasively in signatures for readability.
WordAddr = int
BlockAddr = int
CacheId = int
ProcessorId = int
Cycle = int
Stamp = int

#: Cache id used for the I/O processor's bus port.
IO_CACHE_ID: CacheId = -1

#: Stamp value of a word that has never been written.
NEVER_WRITTEN: Stamp = 0

#: Sentinel cycle number meaning "no self-initiated event will ever
#: occur" -- returned by ``next_event_cycle()`` implementations for
#: components that can only be woken by someone else (e.g. a processor
#: parked on a lock waits for another cache's unlock broadcast).  A large
#: int rather than ``math.inf`` so arithmetic stays in the fast int path.
NEVER: Cycle = 1 << 62


class IdentityEnum(enum.Enum):
    """An enum whose members hash as plain objects do.

    ``Enum.__hash__`` is Python code (``hash(self._name_)``); a dict or
    set probe keyed by a member pays for that call on every lookup.
    Members compare by identity, so the C-level object hash is
    consistent with equality.  The vocabularies the simulator looks up
    per event (bus ops, op kinds, cache states, table events) derive
    from this class.
    """

    __hash__ = object.__hash__


def block_of(addr: WordAddr, words_per_block: int) -> BlockAddr:
    """Return the block address containing word ``addr``."""
    if words_per_block <= 0:
        raise ValueError(f"words_per_block must be positive, got {words_per_block}")
    return (addr // words_per_block) * words_per_block


def word_offset(addr: WordAddr, words_per_block: int) -> int:
    """Return the offset of word ``addr`` within its block."""
    return addr - block_of(addr, words_per_block)


@dataclass(frozen=True)
class AddressRange:
    """A contiguous range of word addresses ``[start, start + length)``."""

    start: WordAddr
    length: int

    def __post_init__(self) -> None:
        if self.length < 0:
            raise ValueError(f"length must be non-negative, got {self.length}")

    def __contains__(self, addr: WordAddr) -> bool:
        return self.start <= addr < self.start + self.length

    def words(self) -> range:
        """Iterate over every word address in the range."""
        return range(self.start, self.start + self.length)

    def blocks(self, words_per_block: int) -> list[BlockAddr]:
        """Return the distinct block addresses the range touches, in order."""
        if self.length == 0:
            return []
        first = block_of(self.start, words_per_block)
        last = block_of(self.start + self.length - 1, words_per_block)
        return list(range(first, last + words_per_block, words_per_block))

    @property
    def end(self) -> WordAddr:
        return self.start + self.length
