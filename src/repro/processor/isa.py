"""Processor operation vocabulary.

Programs are sequences of :class:`Op`.  Memory-touching ops name a word
address; ``COMPUTE`` burns processor cycles without touching memory.  The
lock/unlock ops are the paper's special read/write instructions (Section
E.3: "the lock instruction is a special processor read instruction...
the unlock can occur at the final write").  Spin-acquire ops are macro
operations the processor state machine expands into retry loops -- they
model the busy-wait alternatives of Section E.4.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.common.types import IdentityEnum, WordAddr


class OpKind(IdentityEnum):
    READ = "read"
    WRITE = "write"
    COMPUTE = "compute"
    #: Cache-state lock: fetch-with-lock, returns the word (Section E.3).
    LOCK = "lock"
    #: Final write to a locked block; unlocks it (Figure 8).
    UNLOCK = "unlock"
    #: Write a whole block without fetching it (Feature 9: save state).
    SAVE_BLOCK = "save-block"
    #: Spin issuing atomic test-and-set until the lock word is acquired.
    TAS_ACQUIRE = "tas-acquire"
    #: Test-and-test-and-set: spin reading the cached copy, test-and-set
    #: only when it reads free (the write-in busy-wait of Section E.4).
    TTAS_ACQUIRE = "ttas-acquire"
    #: Write 0 to a lock word (release for TAS-style locks).
    RELEASE = "release"
    #: One atomic read-modify-write instruction (Feature 6).
    RMW = "rmw"


# Members read by ``Op.__post_init__`` -- once per op a workload
# builds -- bound once: reading one through its class is a Python-level
# ``EnumType.__getattr__`` call (DESIGN.md section 4).
_COMPUTE, _RMW = OpKind.COMPUTE, OpKind.RMW

#: An RMW function maps the old word *value* to the new value, or ``None``
#: to write nothing (e.g. test-and-set finding the lock held).
RmwFunc = Callable[[int], int | None]


def test_and_set(token: int) -> RmwFunc:
    """Classic test-and-set: grab the word if it reads 0."""

    def func(old: int) -> int | None:
        return token if old == 0 else None

    return func


def fetch_and_add(delta: int) -> RmwFunc:
    def func(old: int) -> int | None:
        return old + delta

    return func


@dataclass(slots=True)
class Op:
    kind: OpKind
    addr: WordAddr | None = None
    #: COMPUTE: number of cycles.  SAVE_BLOCK: ignored (whole block).
    cycles: int = 0
    #: Value written by WRITE/UNLOCK/RELEASE/SAVE_BLOCK (0 for RELEASE).
    value: int = 1
    #: Feature 5 static determination: the compiler marked this read as a
    #: read of unshared data (read-for-write-privilege instruction).
    private_hint: bool = False
    #: RMW function for OpKind.RMW.
    rmw: RmwFunc | None = None
    #: Independent work (cycles) available while waiting for this lock --
    #: the "ready section" of Section E.4.
    ready_work: int = 0
    #: Assigned at issue time by the engine's stamp clock.
    stamp: int | None = None
    #: Filled at completion: value read (READ/LOCK) or RMW success flag.
    result: int | None = None
    #: Set when an optimistic RMW aborted (Feature 6, third method); the
    #: processor retries the instruction.
    aborted: bool = False

    def __post_init__(self) -> None:
        kind = self.kind
        if kind is _COMPUTE:
            if self.cycles <= 0:
                raise ValueError("COMPUTE requires positive cycles")
            return
        if self.addr is None:
            raise ValueError(f"{kind} requires an address")
        if kind is _RMW and self.rmw is None:
            raise ValueError("RMW op requires an rmw function")


# Convenience constructors -- workload generators read much better with
# these than with raw Op(...) calls.


def read(addr: WordAddr, *, private: bool = False) -> Op:
    return Op(OpKind.READ, addr, private_hint=private)


def write(addr: WordAddr, value: int = 1) -> Op:
    return Op(OpKind.WRITE, addr, value=value)


def compute(cycles: int) -> Op:
    return Op(OpKind.COMPUTE, cycles=cycles)


def lock(addr: WordAddr, *, ready_work: int = 0) -> Op:
    return Op(OpKind.LOCK, addr, ready_work=ready_work)


def unlock(addr: WordAddr, value: int = 1) -> Op:
    return Op(OpKind.UNLOCK, addr, value=value)


def save_block(addr: WordAddr, value: int = 1) -> Op:
    return Op(OpKind.SAVE_BLOCK, addr, value=value)


def tas_acquire(addr: WordAddr, token: int = 1) -> Op:
    return Op(OpKind.TAS_ACQUIRE, addr, value=token)


def ttas_acquire(addr: WordAddr, token: int = 1) -> Op:
    return Op(OpKind.TTAS_ACQUIRE, addr, value=token)


def release(addr: WordAddr) -> Op:
    return Op(OpKind.RELEASE, addr, value=0)


def rmw(addr: WordAddr, func: RmwFunc, value: int = 1) -> Op:
    return Op(OpKind.RMW, addr, rmw=func, value=value)
