"""Cache organization: placement and replacement.

Supports fully-associative caches (the paper's Section E.3 assumption for
the lock scheme) and set-associative caches (where a locked block can be
forced out, exercising the memory lock-tag fallback).  Replacement is LRU
within a set; locked lines are skipped as victims when any alternative
exists.
"""

from __future__ import annotations

from repro.cache.line import CacheLine
from repro.cache.state import CacheState
from repro.common.config import CacheConfig
from repro.common.types import BlockAddr


class CacheArray:
    """Tag/state array with LRU replacement."""

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        # Empty frames carry an impossible tag so a never-used frame can
        # never tag-match a real block (update-invalid snoops check tags
        # of invalid lines).
        self._sets: list[list[CacheLine]] = [
            [CacheLine.empty(-1, config.words_per_block) for _ in range(config.ways)]
            for _ in range(config.num_sets)
        ]
        # Tag index: block -> frames currently *tagged* with it, valid or
        # not.  Tags change only in install(), so the index stays exact
        # while validity flips freely on the lines themselves; lookup()
        # filters by state.  Every snoop performs a lookup, making this
        # the simulator's hottest data structure -- the index turns the
        # per-snoop set scan into a dict probe.
        self._tagged: dict[BlockAddr, list[CacheLine]] = {}

    def _set_index(self, block: BlockAddr) -> int:
        block_number = block // self.config.words_per_block
        return block_number % self.config.num_sets

    def lookup(self, block: BlockAddr) -> CacheLine | None:
        """Return the valid line holding ``block``, if present."""
        lines = self._tagged.get(block)
        if lines is None:
            return None
        for line in lines:
            if line.state is not CacheState.INVALID:
                return line
        return None

    def touch(self, line: CacheLine, cycle: int) -> None:
        line.last_used = cycle

    def choose_victim(self, block: BlockAddr) -> CacheLine:
        """Pick the frame that will hold ``block``: an invalid frame if one
        exists, otherwise the LRU line -- preferring unlocked victims."""
        candidates = self._sets[self._set_index(block)]
        for line in candidates:
            if not line.valid:
                return line
        unlocked = [line for line in candidates if not line.locked]
        pool = unlocked if unlocked else candidates
        return min(pool, key=lambda line: line.last_used)

    def install(self, victim: CacheLine, block: BlockAddr, state: CacheState,
                words: list[int], cycle: int) -> CacheLine:
        """Overwrite ``victim`` in place with a new resident block."""
        if victim.block != block:
            old = self._tagged.get(victim.block)
            if old is not None:
                old.remove(victim)
                if not old:
                    del self._tagged[victim.block]
            self._tagged.setdefault(block, []).append(victim)
        victim.block = block
        victim.state = state
        victim.fill(words)
        victim.last_used = cycle
        return victim

    def lines(self) -> list[CacheLine]:
        """All valid lines (for invariant checks and purge sweeps)."""
        return [line for lines in self._sets for line in lines if line.valid]

    def set_of(self, block: BlockAddr) -> list[CacheLine]:
        return list(self._sets[self._set_index(block)])

    def signature(self) -> tuple:
        """Canonical behavioural state of the array, for the model
        checker's fingerprints: each set's frames (tag, state value, word
        stamps, sub-block dirty and valid bits) with the set's LRU rank
        order -- the order, not the absolute cycles, picks future
        victims."""
        sets_sig = []
        for frames in self._sets:
            rank = tuple(sorted(range(len(frames)),
                                key=lambda i: frames[i].last_used))
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
            )
            sets_sig.append((lines, rank))
        return tuple(sets_sig)

    @property
    def capacity(self) -> int:
        return self.config.num_blocks
