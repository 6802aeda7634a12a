"""The values a coherence protocol hands back to its cache.

A protocol (:class:`~repro.protocols.table.TableProtocol`) answers a
processor access with :class:`Done` or :class:`NeedBus`, and a granted
transaction of a pending access with a :class:`TxnResult`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.bus.transaction import BusOp
from repro.common.types import Stamp, WordAddr


@dataclass
class Done:
    """The access completed locally (cache hit, zero bus traffic)."""

    value: Stamp | None = None
    #: The protocol already applied the write itself (classic write-through
    #: applies the local write before the bus word-write serializes).
    write_applied: bool = False


@dataclass
class NeedBus:
    """The access needs a bus transaction before it can complete."""

    op: BusOp
    word: WordAddr | None = None
    stamp: Stamp | None = None
    lock_intent: bool = False
    high_priority: bool = False
    update_invalid: bool = False
    #: Extra bus-held cycles (bus-hold RMW, Feature 6).
    extra_hold: int = 0

    def prioritized(self) -> "NeedBus":
        """This request asserting the busy-wait priority bit (Section
        E.4), for a waiter to re-post after an unlock broadcast: a copy,
        or the request itself when it asserts the bit already.  Posted
        requests are read-only, so the two may be shared."""
        if self.high_priority:
            return self
        return NeedBus(op=self.op, word=self.word, stamp=self.stamp,
                       lock_intent=self.lock_intent, high_priority=True,
                       update_invalid=self.update_invalid,
                       extra_hold=self.extra_hold)


#: What a protocol returns from a processor-access hook.
Action = Done | NeedBus


class Outcome(enum.Enum):
    """Result of completing one bus transaction of a pending access."""

    DONE = "done"  # the processor operation finished
    REBUS = "rebus"  # another bus transaction is required (next phase)
    WAIT_LOCK = "wait-lock"  # the block is locked elsewhere; busy-wait


@dataclass
class TxnResult:
    outcome: Outcome
    next_bus: NeedBus | None = None
