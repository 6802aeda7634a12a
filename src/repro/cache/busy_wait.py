"""The busy-wait register (Section E.4).

When a cache's lock request is refused because the block is locked
elsewhere, the cache enters the block address in this register and stops
touching the bus.  The register snoops for the block's unlock broadcast;
when it sees one it tells the cache to join the next bus arbitration at
high priority.  If another waiter wins and re-locks the block, the register
stays armed (Figure 9: the losers "make no attempt to fetch the block
again").
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.common.types import BlockAddr


class WaitPhase(enum.Enum):
    IDLE = "idle"
    ARMED = "armed"  # waiting for an unlock broadcast
    FIRED = "fired"  # saw the unlock; contending at high priority


_IDLE, _ARMED, _FIRED = WaitPhase.IDLE, WaitPhase.ARMED, WaitPhase.FIRED


@dataclass
class BusyWaitRegister:
    """One busy-wait register per cache (the paper proposes one; waiting on
    more than one lock at a time is impossible for a single process)."""

    block: BlockAddr | None = None
    phase: WaitPhase = _IDLE
    #: Cycle the wait began (for wait-latency statistics).
    armed_at: int = 0

    @property
    def active(self) -> bool:
        return self.phase is not _IDLE

    def arm(self, block: BlockAddr, cycle: int) -> None:
        if self.phase is not _IDLE:
            raise RuntimeError(
                f"busy-wait register already armed for block {self.block}"
            )
        self.block = block
        self.phase = _ARMED
        self.armed_at = cycle

    def notice_unlock(self, block: BlockAddr) -> bool:
        """Snoop an unlock broadcast; returns True if this register fires."""
        if self.phase is _ARMED and self.block == block:
            self.phase = _FIRED
            return True
        return False

    def lost_arbitration(self) -> None:
        """Another waiter won and re-locked the block; keep waiting."""
        if self.phase is _FIRED:
            self.phase = _ARMED

    def clear(self) -> None:
        self.block = None
        self.phase = _IDLE
