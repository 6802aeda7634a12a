"""A cache line (block frame)."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cache.state import CacheState
from repro.common.types import NEVER_WRITTEN, BlockAddr, Stamp


@dataclass(slots=True)
class CacheLine:
    """One block frame: tag, state, per-word write stamps, LRU clock."""

    block: BlockAddr
    state: CacheState = CacheState.INVALID
    words: list[Stamp] = field(default_factory=list)
    #: Last-touched cycle, for LRU replacement.
    last_used: int = 0
    #: Valid bits per transfer unit (Section D.3); ``None`` when the cache
    #: transfers whole blocks only.
    unit_valid: list[bool] | None = None
    #: Dirty bits per transfer unit (Section D.3).
    unit_dirty: list[bool] | None = None

    @staticmethod
    def empty(block: BlockAddr, words_per_block: int) -> "CacheLine":
        # Positional: a cache array builds one per frame it fills, and
        # keyword init costs half again as much.
        return CacheLine(block, CacheState.INVALID,
                         [NEVER_WRITTEN] * words_per_block)

    @property
    def valid(self) -> bool:
        return self.state.valid

    @property
    def dirty(self) -> bool:
        return self.state.dirty

    @property
    def locked(self) -> bool:
        return self.state.locked

    def fill(self, words: list[Stamp]) -> None:
        self.words = list(words)
        if self.unit_valid is not None:
            self.unit_valid = [True] * len(self.unit_valid)
        if self.unit_dirty is not None:
            self.unit_dirty = [False] * len(self.unit_dirty)

    def read_word(self, offset: int) -> Stamp:
        return self.words[offset]

    def write_word(self, offset: int, stamp: Stamp) -> None:
        self.words[offset] = stamp

    def snapshot(self) -> list[Stamp]:
        return list(self.words)
