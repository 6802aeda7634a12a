"""Per-block directory state held at a home bank.

Each entry tracks the *sharer vector* -- the caches that might react to
a transaction on the block (a tagged frame or an armed busy-wait) --
and the *owner*, the cache whose copy is dirty.  The vector
is deliberately conservative: a cache stays listed until a probe shows
it no longer cares, so the directory can prune deliveries but never
starve a cache of a message it needed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.common.types import CacheId
from repro.directory_backend.representations import FullBitVector, SharerSet


@dataclass
class DirectoryEntry:
    """Directory state for one block at its home bank."""

    #: Caches that may hold or be waiting on the block, behind one of
    #: the pluggable representations (full bit vector by default).
    sharers: SharerSet = field(default_factory=FullBitVector)
    #: The cache holding the block dirty, if any (always also a sharer).
    owner: CacheId | None = None


class DirectoryState:
    """All directory entries of one home bank, plus message tallies.

    ``representation`` is the zero-arg sharer-set constructor new
    entries are built with (see
    :mod:`repro.directory_backend.representations`).

    The tallies model the point-to-point traffic a real directory fabric
    would put on the network: one request and one response per
    transaction, a forward when a cache supplies the data, an
    invalidation (or probe) per non-supplying listed cache, and an ack
    back from every probed cache.
    """

    def __init__(self, bank: int,
                 representation: Callable[[], SharerSet] = FullBitVector,
                 ) -> None:
        self.bank = bank
        self.representation = representation
        self._entries: dict[int, DirectoryEntry] = {}
        self.requests = 0
        self.responses = 0
        self.forwards = 0
        self.invalidations = 0
        self.acks = 0

    def entry(self, block_number: int) -> DirectoryEntry:
        found = self._entries.get(block_number)
        if found is None:
            found = self._entries[block_number] = DirectoryEntry(
                sharers=self.representation())
        return found

    def entries(self) -> dict[int, DirectoryEntry]:
        return self._entries

    @property
    def messages(self) -> int:
        return (self.requests + self.responses + self.forwards
                + self.invalidations + self.acks)

    def tallies(self) -> dict[str, int]:
        return {
            "requests": self.requests,
            "responses": self.responses,
            "forwards": self.forwards,
            "invalidations": self.invalidations,
            "acks": self.acks,
        }
