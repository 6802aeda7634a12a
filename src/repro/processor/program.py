"""Programs: per-processor operation sequences.

A :class:`Program` is the unit a workload generator produces for each
processor.  ``lower_locks`` rewrites the paper's cache-state lock/unlock
instructions into busy-wait spinlock sequences for protocols without a
lock state, which keeps cross-protocol benches apples-to-apples (one
synchronizing op in, one synchronizing op out).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

from repro.common.errors import ProgramError
from repro.processor.isa import Op, OpKind


class LockStyle(enum.Enum):
    """How LOCK/UNLOCK pairs are realized on a given protocol."""

    CACHE_LOCK = "cache-lock"  # the proposal's lock state (Section E.3)
    TAS = "tas"  # test-and-set retried over the bus
    TTAS = "ttas"  # test-and-test-and-set: spin in the cache (E.4 write-in)


@dataclass
class Program:
    """An ordered list of operations for one processor."""

    ops: list[Op] = field(default_factory=list)
    name: str = "program"

    def __len__(self) -> int:
        return len(self.ops)

    def __iter__(self):
        return iter(self.ops)

    def validate(self) -> None:
        """Check structural sanity: every UNLOCK follows a LOCK of the same
        address, and locks are not left dangling."""
        held: set[int] = set()
        for op in self.ops:
            if op.kind is OpKind.LOCK:
                if op.addr in held:
                    raise ProgramError(f"nested lock of word {op.addr}")
                held.add(op.addr)  # type: ignore[arg-type]
            elif op.kind is OpKind.UNLOCK:
                if op.addr not in held:
                    raise ProgramError(f"unlock of word {op.addr} not held")
                held.remove(op.addr)  # type: ignore[arg-type]
        if held:
            raise ProgramError(f"program ends holding locks: {sorted(held)}")

    def lowered(self, style: LockStyle) -> "Program":
        """Return this program with LOCK/UNLOCK realized per ``style``."""
        if style is LockStyle.CACHE_LOCK:
            return self
        return Program(ops=lower_locks(self.ops, style), name=self.name)


def lower_locks(ops: list[Op], style: LockStyle) -> list[Op]:
    """Rewrite cache-state lock ops into spinlock ops.

    ``LOCK a`` becomes a TAS/TTAS acquire of word ``a`` (the atom's first
    word doubles as the lock bit, as the paper assumes for the test-and-set
    alternative in E.3); ``UNLOCK a`` becomes a release (write 0).  Op
    counts are preserved: the unlock's data write is replaced by the lock
    bit clear.
    """
    if style is LockStyle.CACHE_LOCK:
        return [replace(op) for op in ops]
    acquire_kind = OpKind.TAS_ACQUIRE if style is LockStyle.TAS else OpKind.TTAS_ACQUIRE
    lowered: list[Op] = []
    for op in ops:
        if op.kind is OpKind.LOCK:
            lowered.append(
                Op(acquire_kind, op.addr, value=1, ready_work=op.ready_work)
            )
        elif op.kind is OpKind.UNLOCK:
            lowered.append(Op(OpKind.RELEASE, op.addr, value=0))
        else:
            lowered.append(replace(op))
    return lowered
