"""The Aquarius lower switch-memory system: a banked crossbar (Figure 11).

The paper's organization splits traffic across two systems: the single
synchronization bus (all hard atoms) and a crossbar carrying instructions
and non-synchronization data.  The crossbar system "will not need to
serialize accesses to a block, but will only need to provide the latest
version of each block" (Section G.1) -- so this model provides instant
coherence (one store of word stamps) and models only *contention*:
each memory bank services one request at a time with a fixed latency;
requests to distinct banks proceed in parallel.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.types import Stamp, WordAddr

#: Word addresses at or above this base route to the crossbar system.
#: (Hard atoms live below it, on the synchronization bus -- "all hard
#: atoms will reside in the upper system".)
CROSSBAR_BASE: WordAddr = 1 << 20


@dataclass
class CrossbarStats:
    accesses: int = 0
    reads: int = 0
    writes: int = 0
    #: Cycles requests spent queued behind a busy bank.
    conflict_cycles: int = 0


@dataclass
class Crossbar:
    """N-bank crossbar with per-bank occupancy."""

    n_banks: int = 8
    latency: int = 3
    words_per_bank_line: int = 4
    _bank_busy_until: list[int] = field(default_factory=list)
    _words: dict[WordAddr, Stamp] = field(default_factory=dict)
    stats: CrossbarStats = field(default_factory=CrossbarStats)

    def __post_init__(self) -> None:
        if self.n_banks <= 0:
            raise ValueError("n_banks must be positive")
        if self.latency <= 0:
            raise ValueError("latency must be positive")
        self._bank_busy_until = [0] * self.n_banks

    def bank_of(self, addr: WordAddr) -> int:
        line = (addr - CROSSBAR_BASE) // self.words_per_bank_line
        return line % self.n_banks

    def access(self, addr: WordAddr, now: int, *, stamp: Stamp | None = None) -> tuple[int, Stamp]:
        """Issue a read (``stamp=None``) or write at cycle ``now``.

        Returns ``(completion_cycle, stamp_seen_or_written)``.  The
        request occupies its bank from the later of now / bank-free until
        completion; queueing delay is counted as conflict cycles.
        """
        if addr < CROSSBAR_BASE:
            raise ValueError(
                f"address {addr} belongs to the synchronization bus, "
                f"not the crossbar"
            )
        bank = self.bank_of(addr)
        start = max(now, self._bank_busy_until[bank])
        self.stats.conflict_cycles += start - now
        done = start + self.latency
        self._bank_busy_until[bank] = done
        self.stats.accesses += 1
        if stamp is None:
            self.stats.reads += 1
            return done, self._words.get(addr, 0)
        self.stats.writes += 1
        self._words[addr] = stamp
        return done, stamp

    def peek(self, addr: WordAddr) -> Stamp:
        return self._words.get(addr, 0)
