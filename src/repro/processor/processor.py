"""The processor model.

A simple in-order processor executing a :class:`~repro.processor.program.
Program` against its blocking cache.  It expands the spin-acquire macro
ops (TAS / TTAS) into retry loops, retries aborted optimistic RMWs, and
implements the two busy-wait behaviours of Section E.4: idle spinning, or
working through a bounded "ready section" until the busy-wait register
interrupts it.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING

from repro.common.config import WaitMode
from repro.common.errors import ProgramError
from repro.common.types import NEVER
from repro.obs.null import NULL_OBS
from repro.processor.isa import Op, OpKind, test_and_set
from repro.processor.program import Program

if TYPE_CHECKING:
    from repro.cache.cache import SnoopingCache
    from repro.obs.core import Observability
    from repro.sim.clock import StampClock
    from repro.sim.stats import ProcessorStats

from repro.cache.cache import AccessStatus


class _State(enum.Enum):
    READY = "ready"
    COMPUTING = "computing"
    STALLED = "stalled"  # waiting for the cache/bus
    DONE = "done"


class _SpinKind(enum.Enum):
    NONE = "none"
    TAS = "tas"  # retry test-and-set over the bus
    TTAS_READ = "ttas-read"  # spinning on the cached copy
    TTAS_TAS = "ttas-tas"  # saw it free; attempting the test-and-set


# Enum members bound once for the per-cycle paths: reading a member
# through its class is a Python-level ``EnumType.__getattr__`` call
# (DESIGN.md section 4).  The engine imports the state aliases too.
_READY, _COMPUTING, _STALLED, _DONE = (
    _State.READY, _State.COMPUTING, _State.STALLED, _State.DONE)
_NO_SPIN, _TAS, _TTAS_READ, _TTAS_TAS = (
    _SpinKind.NONE, _SpinKind.TAS, _SpinKind.TTAS_READ, _SpinKind.TTAS_TAS)
_OP_READ, _OP_LOCK, _OP_COMPUTE, _OP_RMW, _OP_TAS_ACQUIRE = (
    OpKind.READ, OpKind.LOCK, OpKind.COMPUTE, OpKind.RMW,
    OpKind.TAS_ACQUIRE)
#: Op kinds by what the processor does with them at issue and retire.
_SPIN_KINDS = (OpKind.TAS_ACQUIRE, OpKind.TTAS_ACQUIRE)
_STAMPED_KINDS = (OpKind.WRITE, OpKind.UNLOCK, OpKind.RELEASE,
                  OpKind.SAVE_BLOCK)
_WRITE_KINDS = (OpKind.WRITE, OpKind.SAVE_BLOCK)
_RELEASE_KINDS = (OpKind.UNLOCK, OpKind.RELEASE)
_CROSSBAR_KINDS = (OpKind.READ, OpKind.WRITE)
_WORK = WaitMode.WORK
_ACCESS_DONE = AccessStatus.DONE


class Processor:
    """One in-order processor attached to one cache."""

    def __init__(
        self,
        pid: int,
        cache: "SnoopingCache",
        program: Program,
        stamp_clock: "StampClock",
        stats: "ProcessorStats",
        wait_mode: WaitMode = WaitMode.SPIN,
        obs: "Observability" = NULL_OBS,
    ) -> None:
        self.pid = pid
        self.cache = cache
        self.program = program
        self.stamp_clock = stamp_clock
        self.stats = stats
        self.wait_mode = wait_mode
        self.obs = obs
        self._pc = 0
        self._state = _READY if program.ops else _DONE
        self._compute_left = 0
        self._spin = _NO_SPIN
        self._spin_op: Op | None = None  # the macro op being expanded
        self._ready_work_left = 0
        #: Optional Aquarius crossbar port (Figure 11): reads/writes at or
        #: above CROSSBAR_BASE bypass the cache and the bus.
        self.crossbar = None
        self._crossbar_until: int | None = None
        self._crossbar_op: Op | None = None
        #: A spin sub-op that completed as a hit; processed next cycle so
        #: every spin iteration consumes at least one processor cycle.
        self._pending_spin_result: Op | None = None
        #: Set while a user-level lock is held, for hold-time statistics.
        self._lock_held_since: dict[int, int] = {}
        self._now = 0
        #: Every cycle before this one is accounted: ticked, or applied
        #: in bulk by :meth:`settle`.
        self._synced = 0

    # -- public surface -----------------------------------------------------

    @property
    def done(self) -> bool:
        return self._state is _DONE

    @property
    def pc(self) -> int:
        return self._pc

    def next_event_cycle(self, now: int) -> int:
        """Earliest cycle at which this processor's tick does anything
        beyond pure per-cycle accounting (see :meth:`advance_quiet`).

        ``now`` is the cycle about to be ticked.  Returns
        :data:`~repro.common.types.NEVER` for waits that only an external
        event can end: a bus-release (covered by the bus's own
        ``next_event_cycle``) or an unlock broadcast (generated by another
        cache's transaction, which implies a bus event).
        """
        state = self._state
        if state is _DONE:
            return NEVER
        if state is _COMPUTING:
            # Ticks at now .. now+left-2 only decrement the counter; the
            # tick at now+left-1 retires the COMPUTE op.
            return now + self._compute_left - 1
        if state is _STALLED:
            if self._crossbar_op is not None:
                assert self._crossbar_until is not None
                return max(now, self._crossbar_until)
            pending = self.cache._pending
            if pending is not None and pending.completed:
                return now
            return NEVER
        # READY, or a spin iteration queued for the next cycle.
        return now

    def settle(self, now: int) -> None:
        """Account every cycle before ``now`` that was not ticked.

        The engine ticks a processor only on cycles it may act on and
        leaves the cycles between to be settled here, when the processor
        is next touched: its own tick, its cache changing what the
        accounting reads (:attr:`SnoopingCache.notify_processor`), or the
        end of the run.  Readers of the counters mid-run settle first.
        """
        gap = now - self._synced
        if gap > 0:
            self.advance_quiet(gap)
            self._synced = now

    def advance_quiet(self, cycles: int) -> None:
        """Apply ``cycles`` ticks' worth of accounting in one step.

        Only valid for spans strictly before :meth:`next_event_cycle`:
        every skipped tick must be pure accounting (counters incremented,
        nothing issued, nothing retired), which this reproduces exactly.
        """
        state = self._state
        if state is _DONE:
            self.stats.done_cycles += cycles
        elif state is _COMPUTING:
            assert cycles < self._compute_left
            self._compute_left -= cycles
            self.stats.compute_cycles += cycles
        elif state is _STALLED:
            if self._crossbar_op is None and self.cache.waiting_for_lock:
                if self.wait_mode is _WORK and self._ready_work_left > 0:
                    worked = min(cycles, self._ready_work_left)
                    self._ready_work_left -= worked
                    self.stats.wait_work_cycles += worked
                    self.stats.wait_idle_cycles += cycles - worked
                else:
                    self.stats.wait_idle_cycles += cycles
            else:
                self.stats.stall_cycles += cycles
        else:  # READY -- next_event_cycle() is `now`; nothing to skip.
            raise AssertionError("cannot bulk-advance a ready processor")

    def tick(self, cycle: int) -> None:
        """Advance one cycle, settling the cycles before it first."""
        self.settle(cycle)
        self._synced = cycle + 1
        self._now = cycle
        state = self._state
        if state is _DONE:
            self.stats.done_cycles += 1
            return
        if state is _COMPUTING:
            self._compute_left -= 1
            self.stats.compute_cycles += 1
            if self._compute_left <= 0:
                self._retire(self.program.ops[self._pc])
            return
        if state is _STALLED:
            self._tick_stalled()
            return
        if self._pending_spin_result is not None:
            op = self._pending_spin_result
            self._pending_spin_result = None
            self.stats.compute_cycles += 1
            if self.obs.active:
                # A compute cycle: any access the spin chains from here
                # starts stalling next cycle, not this one.
                self.obs.record_spin_step(self.pid, cycle)
            self._continue_spin(op)
            return
        # READY: issue the next operation.
        self._issue_next()

    # -- stalled handling ---------------------------------------------------------

    def _tick_stalled(self) -> None:
        if self._crossbar_op is not None:
            assert self._crossbar_until is not None
            if self._now >= self._crossbar_until:
                op = self._crossbar_op
                self._crossbar_op = None
                self._crossbar_until = None
                self.stats.compute_cycles += 1
                self._retire(op)
            else:
                self.stats.stall_cycles += 1
            return
        completed = self.cache.take_completion()
        if completed is not None:
            self._on_completed(completed)
            return
        if self.cache.waiting_for_lock:
            if self.wait_mode is _WORK and self._ready_work_left > 0:
                self._ready_work_left -= 1
                self.stats.wait_work_cycles += 1
            else:
                self.stats.wait_idle_cycles += 1
        else:
            self.stats.stall_cycles += 1

    def _on_completed(self, op: Op) -> None:
        self.stats.compute_cycles += 1  # the completing access cycle
        if op.aborted:
            # Optimistic RMW lost the block: retry the instruction.
            op.aborted = False
            op.result = None
            self._start_access(op)
            return
        if self._spin is not _NO_SPIN:
            self._continue_spin(op)
            return
        self._retire(op)

    # -- issue logic -----------------------------------------------------------------

    def _issue_next(self) -> None:
        op = self.program.ops[self._pc]
        kind = op.kind
        if kind is _OP_COMPUTE:
            self._state = _COMPUTING
            self._compute_left = op.cycles - 1
            self.stats.compute_cycles += 1
            if self._compute_left <= 0:
                self._retire(op)
            return
        if kind in _SPIN_KINDS:
            self._begin_spin(op)
        else:
            self._start_access(op)
        # The issue cycle lands in exactly one bucket: compute if the
        # access completed (or a spin iteration was queued), stall if the
        # processor is now blocked on the cache.
        if self._state is _STALLED:
            self.stats.stall_cycles += 1
        else:
            self.stats.compute_cycles += 1
            if self.obs.active:
                self.obs.record_local_hit(self.pid, self._now)

    def _begin_spin(self, op: Op) -> None:
        self._spin_op = op
        self._ready_work_left = op.ready_work
        if self.obs.active:
            assert op.addr is not None
            self.obs.record_wait_start(
                self.pid, self.cache.block_of(op.addr), self._now)
        if op.kind is _OP_TAS_ACQUIRE:
            self._spin = _TAS
            self._start_access(self._make_tas(op))
        else:
            self._spin = _TTAS_READ
            self._start_access(Op(_OP_READ, op.addr))

    def _make_tas(self, macro: Op) -> Op:
        assert macro.addr is not None
        return Op(_OP_RMW, macro.addr, rmw=test_and_set(macro.value), value=macro.value)

    def _continue_spin(self, op: Op) -> None:
        macro = self._spin_op
        assert macro is not None
        spin = self._spin
        if spin is _TAS or spin is _TTAS_TAS:
            if op.result == 1:
                self._end_spin(acquired=True)
                return
            # Lost the race: fall back per the spin discipline.
            if spin is _TAS:
                self._start_access(self._make_tas(macro))
            else:
                self._spin = _TTAS_READ
                self._start_access(Op(_OP_READ, macro.addr))
            return
        # TTAS_READ: examine the value we read.
        assert op.result is not None
        value = self.stamp_clock.value_of(op.result)
        if value == 0:
            self._spin = _TTAS_TAS
            self._start_access(self._make_tas(macro))
        else:
            # Still held: keep looping on the cached copy (local hits).
            self._start_access(Op(_OP_READ, macro.addr))

    def _end_spin(self, acquired: bool) -> None:
        macro = self._spin_op
        assert macro is not None
        self._spin = _NO_SPIN
        self._spin_op = None
        if acquired:
            self.stats.lock_acquisitions += 1
            assert macro.addr is not None
            self._lock_held_since[macro.addr] = self._now
            if self.obs.active:
                self.obs.record_lock_acquired(
                    self.pid, self.cache.block_of(macro.addr), self._now)
        self._retire(macro)

    # -- access plumbing ----------------------------------------------------------------

    def _start_access(self, op: Op) -> None:
        kind = op.kind
        if kind in _STAMPED_KINDS:
            op.stamp = self.stamp_clock.next_stamp(op.value)
        elif kind is _OP_LOCK:
            self._ready_work_left = op.ready_work
        if self._routes_to_crossbar(op):
            self._start_crossbar(op)
            return
        status = self.cache.access(op)
        if status is _ACCESS_DONE:
            if self._spin is not _NO_SPIN:
                # Defer to the next cycle so each spin iteration costs one.
                self._pending_spin_result = op
                self._state = _READY
            else:
                self._retire(op)
            return
        self._state = _STALLED

    def _routes_to_crossbar(self, op: Op) -> bool:
        if self.crossbar is None or op.addr is None:
            return False
        from repro.aquarius.crossbar import CROSSBAR_BASE

        if op.addr < CROSSBAR_BASE:
            return False
        if op.kind not in _CROSSBAR_KINDS:
            raise ProgramError(
                f"{op.kind} at crossbar address {op.addr}: hard atoms "
                "reside on the synchronization bus (Section G.1)"
            )
        return True

    def _start_crossbar(self, op: Op) -> None:
        assert self.crossbar is not None and op.addr is not None
        done_at, stamp = self.crossbar.access(
            op.addr, self._now, stamp=op.stamp
        )
        op.result = stamp
        self._crossbar_op = op
        self._crossbar_until = done_at
        self._state = _STALLED
        if self.obs.active:
            self.obs.record_crossbar(self.pid, self._now, done_at)

    def _retire(self, op: Op) -> None:
        stats = self.stats
        stats.ops_completed += 1
        kind = op.kind
        if kind is _OP_READ:
            stats.reads += 1
        elif kind in _WRITE_KINDS:
            stats.writes += 1
        elif kind is _OP_LOCK:
            stats.lock_acquisitions += 1
            assert op.addr is not None
            self._lock_held_since[op.addr] = self._now
            if self.obs.active:
                self.obs.record_lock_acquired(
                    self.pid, self.cache.block_of(op.addr), self._now)
        elif kind in _RELEASE_KINDS:
            assert op.addr is not None
            since = self._lock_held_since.pop(op.addr, None)
            if since is not None:
                stats.lock_hold_cycles += self._now - since
                if self.obs.active:
                    self.obs.record_lock_released(
                        self.pid, self.cache.block_of(op.addr),
                        since, self._now)
        self._advance()

    def _advance(self) -> None:
        self._pc += 1
        if self._pc < len(self.program.ops):
            self._state = _READY
            return
        self._state = _DONE
        if self._lock_held_since:
            raise ProgramError(
                f"processor {self.pid} finished holding locks: "
                f"{sorted(self._lock_held_since)}"
            )
