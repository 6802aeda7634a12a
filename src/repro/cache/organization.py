"""Cache organization: placement and replacement.

Supports fully-associative caches (the paper's Section E.3 assumption for
the lock scheme) and set-associative caches (where a locked block can be
forced out, exercising the memory lock-tag fallback).  Replacement is LRU
within a set; locked lines are skipped as victims when any alternative
exists.

Frames are created on first fill, not up front: a 1024-processor machine
touches a few blocks per cache, not its 65,536 frames.  A set's frames
are therefore the ones filled so far, in fill order, and every frame it
lacks is an unused one -- tag ``-1``, invalid, never written, LRU clock
0 -- which :meth:`CacheArray.signature` hashes exactly as such.
"""

from __future__ import annotations

from repro.cache.line import CacheLine
from repro.cache.state import CacheState
from repro.common.config import CacheConfig
from repro.common.types import NEVER_WRITTEN, BlockAddr

# Read by ``lookup`` per entry it passes (DESIGN.md section 4).
_INVALID = CacheState.INVALID

#: The tag of a frame that has never been filled: no block has it, so an
#: update-invalid snoop (which checks tags of invalid lines) never
#: matches it.
UNUSED_TAG = -1


class _Pin:
    """An entry of the interest index that is not a frame: one reason,
    other than a tag, for the owning cache to react to snoops on a block.
    It reads as an invalid frame, so :meth:`CacheArray.lookup` passes
    over it."""

    __slots__ = ()
    state = _INVALID


#: The one pin entry; a block carries it once per pin.
PIN = _Pin()


class CacheArray:
    """Tag/state array with LRU replacement."""

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        #: Set index -> the set's frames filled so far, in fill order;
        #: a set never filled has no entry.
        self._sets: dict[int, list[CacheLine]] = {}
        # Interest index: block -> the frames currently *tagged* with it,
        # valid or not, then one PIN while the owning cache's busy-wait
        # register is armed on it.  Tags change only
        # in install() and pins only in pin()/unpin(), so the index stays
        # exact while validity flips freely on the lines themselves;
        # lookup() filters by state, and a pin reads as invalid.  A block
        # is in the index exactly when the cache would react to a snoop
        # on it, so the snoop fast miss -- N-1 calls per bus transaction,
        # the simulator's hottest test -- is one dict probe, and a snoop
        # that does react looks its frame up without scanning the set.
        # Pins share the tag lists rather than a dict of their own: a
        # second dict per cache costs memory for a few pinned blocks.
        self._interest: dict[BlockAddr, list[CacheLine | _Pin]] = {}

    def _set_index(self, block: BlockAddr) -> int:
        block_number = block // self.config.words_per_block
        return block_number % self.config.num_sets

    def lookup(self, block: BlockAddr) -> CacheLine | None:
        """Return the valid line holding ``block``, if present."""
        lines = self._interest.get(block)
        if lines is None:
            return None
        for line in lines:
            if line.state is not _INVALID:
                return line
        return None

    def touch(self, line: CacheLine, cycle: int) -> None:
        line.last_used = cycle

    def choose_victim(self, block: BlockAddr) -> CacheLine:
        """Pick the frame that will hold ``block``: an invalid frame if one
        exists, then a new frame while the set has fewer than ``ways``,
        otherwise the LRU line -- preferring unlocked victims.

        A new frame joins its set when :meth:`install` fills it.  Unused
        frames only ever follow filled ones, so this is the frame an
        array built whole would have picked."""
        candidates = self._sets.get(self._set_index(block), ())
        for line in candidates:
            if not line.valid:
                return line
        if len(candidates) < self.config.ways:
            return CacheLine.empty(UNUSED_TAG, self.config.words_per_block)
        unlocked = [line for line in candidates if not line.locked]
        pool = unlocked if unlocked else candidates
        return min(pool, key=lambda line: line.last_used)

    def install(self, victim: CacheLine, block: BlockAddr, state: CacheState,
                words: list[int], cycle: int) -> CacheLine:
        """Overwrite ``victim`` in place with a new resident block."""
        if victim.block != block:
            if victim.block == UNUSED_TAG:
                self._sets.setdefault(self._set_index(block),
                                      []).append(victim)
            else:
                self._drop(victim.block, victim)
            self._interest.setdefault(block, []).append(victim)
        victim.block = block
        victim.state = state
        victim.fill(words)
        victim.last_used = cycle
        return victim

    def pin(self, block: BlockAddr) -> None:
        """Enter one reason other than a tag to care about ``block``."""
        self._interest.setdefault(block, []).append(PIN)

    def unpin(self, block: BlockAddr) -> None:
        """Withdraw one :meth:`pin` of ``block``."""
        self._drop(block, PIN)

    def _drop(self, block: BlockAddr, entry: CacheLine | _Pin) -> None:
        """Remove one entry (a re-tagged frame or a pin) from
        ``block``'s list; the block leaves the index with its last."""
        entries = self._interest[block]
        entries.remove(entry)
        if not entries:
            del self._interest[block]

    def lines(self) -> list[CacheLine]:
        """All valid lines, in set order (for invariant checks and purge
        sweeps)."""
        sets = self._sets
        return [line for index in sorted(sets) for line in sets[index]
                if line.valid]

    def set_of(self, block: BlockAddr) -> list[CacheLine]:
        """The frames of ``block``'s set filled so far."""
        return list(self._sets.get(self._set_index(block), ()))

    def signature(self) -> tuple:
        """Canonical behavioural state of the array, for the model
        checker's fingerprints: each set's frames (tag, state value, word
        stamps, sub-block dirty and valid bits) with the set's LRU rank
        order -- the order, not the absolute cycles, picks future
        victims.  A frame not yet created hashes as an unused one."""
        ways = self.config.ways
        unused = (UNUSED_TAG, CacheState.INVALID.value,
                  (NEVER_WRITTEN,) * self.config.words_per_block, None, None)
        sets_sig = []
        for index in range(self.config.num_sets):
            frames = self._sets.get(index, ())
            missing = ways - len(frames)
            clocks = [line.last_used for line in frames] + [0] * missing
            rank = tuple(sorted(range(ways), key=clocks.__getitem__))
            lines = tuple(
                (
                    line.block,
                    line.state.value,
                    tuple(line.words),
                    tuple(line.unit_dirty)
                    if line.unit_dirty is not None else None,
                    tuple(line.unit_valid)
                    if line.unit_valid is not None else None,
                )
                for line in frames
            ) + (unused,) * missing
            sets_sig.append((lines, rank))
        return tuple(sets_sig)

    @property
    def capacity(self) -> int:
        return self.config.num_blocks
