"""The simulator: wires processors, caches, bus, and memory, and runs.

Cycle order: bus first (grants/releases), then every processor (issue or
collect), then the cycle counter.  A processor therefore sees a bus
completion on the cycle the occupancy expires, and a request posted this
cycle arbitrates next cycle -- a one-cycle arbitration latency.

Two execution modes produce bit-identical statistics:

* **stepped** -- :meth:`Simulator.step` once per bus cycle (the reference
  semantics above; ``Simulator(..., fast_forward=False)`` runs it);
* **fast-forward** (the default) -- the engine asks the bus and the
  processor wake queue for the next *interesting* cycle (bus occupancy
  expiry, a posted request, compute completion, crossbar return, a
  processor made ready) and advances the clock across the quiet span in
  one step.  Skipped cycles are exactly those in which the stepped
  engine would only have incremented counters: the bus is inert until
  its occupancy expires, and a parked or computing processor cannot
  issue.  Arbitration order is therefore unaffected -- every cycle in
  which a grant, snoop, issue, retire, or wake could occur is still
  executed by the ordinary :meth:`step`.

The stepped engine ticks every processor on every cycle.  The
fast-forward loop ticks only the processors that may act on a cycle:
those ready to issue, those whose compute or crossbar wait ends (a wake
heap), and those whose cache completed their access (the due set, fed by
:attr:`~repro.cache.cache.SnoopingCache.notify_processor`).  Every other
processor's per-cycle counters are settled lazily
(:meth:`Processor.settle`) when it is next touched -- ticked, or its
cache about to start or end a lock wait -- and at the end of the run, so
the work per executed event is O(active), not O(N).  The stepped engine
keeps the due set and wake heap current too, so one simulator can run
in either mode, and stays the per-cycle reference the lazy accounting
is checked against.
"""

from __future__ import annotations

import functools
import time
from heapq import heappop, heappush
from typing import TYPE_CHECKING, Sequence

from repro.bus.bus import Bus
from repro.cache.cache import SnoopingCache
from repro.common.config import SystemConfig, WaitMode
from repro.common.errors import ConfigError, DeadlockError, WatchdogTimeout
from repro.common.types import NEVER
from repro.memory.main_memory import MainMemory
from repro.processor.processor import (
    _COMPUTING, _DONE, _STALLED, Processor)
from repro.processor.program import Program
from repro.obs.null import NULL_OBS
from repro.protocols import get_protocol
from repro.sim.clock import Clock, StampClock
from repro.sim.stats import SimStats
from repro.verify.oracle import WriteOracle

if TYPE_CHECKING:
    from repro.memory.io_processor import IOProcessor
    from repro.obs.core import Observability
    from repro.sim.schedule import Scheduler
    from repro.verify.invariants import InvariantChecker

#: Stepped-loop iterations between wall-clock watchdog checks; keeps the
#: hot path at one integer compare per cycle when a watchdog is armed.
WATCHDOG_STRIDE = 1024

_WORK = WaitMode.WORK


class Simulator:
    """A complete simulated system executing one program per processor."""

    def __init__(
        self,
        config: SystemConfig,
        programs: Sequence[Program],
        *,
        check_interval: int = 0,
        fast_forward: bool = True,
        obs: Observability | None = None,
        scheduler: "Scheduler | None" = None,
        dispatch: str | None = None,
    ) -> None:
        """``fast_forward=False`` makes :meth:`run` use the stepped
        reference engine, for tests and the model checker.

        ``dispatch`` selects nothing: every protocol runs on the one
        table lookup.  It remains only for ``perfbench/harness.py``,
        which passes ``"compiled"``; any value other than that and
        ``None`` raises :class:`ValueError` (from :func:`get_protocol`).
        """
        if len(programs) != config.num_processors:
            raise ConfigError(
                f"{config.num_processors} processors but {len(programs)} programs"
            )
        if config.protocol == "rudolph-segall" and config.cache.words_per_block != 1:
            raise ConfigError(
                "Rudolph-Segall requires one-word blocks (Section E.4); "
                "set cache.words_per_block=1"
            )
        self.config = config
        #: The engine :meth:`run` uses; may be reassigned between runs.
        self.fast_forward = fast_forward
        #: Resolves the engine's nondeterministic tie-breaks (bus
        #: arbitration, issue order, read source, waiter wake); ``None``
        #: keeps the built-in deterministic choices on the fast path.
        self.scheduler = scheduler
        self.clock = Clock()
        self.stamp_clock = StampClock()
        self.stats = SimStats()
        self.obs = obs if obs is not None else NULL_OBS
        self.memory = MainMemory(config.cache.words_per_block)
        from repro.bus.fabric import build_fabric

        assert config.topology is not None
        self.bus = build_fabric(config.topology, self.memory, config.timing,
                                self.clock, self.stats, self.obs)
        self.stats.buses = len(self.bus.buses)
        self.bus.scheduler = scheduler
        self.oracle = WriteOracle(self.stats, strict=config.strict_verify)

        protocol_cls = get_protocol(config.protocol, dispatch)
        # Raises ConfigError for a method the table cannot serve.
        effective_rmw = protocol_cls.rmw_method_for(config.rmw_method)
        self.caches: list[SnoopingCache] = []
        for i in range(config.num_processors):
            cache = SnoopingCache(
                cache_id=i,
                config=config.cache,
                clock=self.clock,
                stamp_clock=self.stamp_clock,
                stats=self.stats,
                obs=self.obs,
            )
            cache.protocol = protocol_cls(cache)
            cache.memory = self.memory
            cache.oracle = self.oracle
            cache.rmw_method = effective_rmw
            cache.rmw_modify_cycles = config.timing.rmw_modify_cycles
            self.caches.append(cache)
            self.bus.attach(cache)

        self.io: IOProcessor | None = None
        if config.with_io:
            from repro.memory.io_processor import IOProcessor

            self.io = IOProcessor(self.memory, self.stamp_clock, self.stats)
            self.io.oracle = self.oracle
            self.bus.attach(self.io)

        self.processors: list[Processor] = [
            Processor(
                pid=i,
                cache=self.caches[i],
                program=programs[i],
                stamp_clock=self.stamp_clock,
                stats=self.stats.processor(i),
                wait_mode=config.wait_mode,
                obs=self.obs,
            )
            for i in range(config.num_processors)
        ]
        if self.obs.active:
            self.obs.bind(self.stats)

        #: Pids to tick on the next executed cycle: ready to issue, or
        #: their access completed (see :meth:`_wake`).
        self._due: set[int] = set()
        #: ``(cycle, pid)`` wake times of computing and crossbar-waiting
        #: processors.  An entry may be stale (its processor ticked since);
        #: ticking a processor on a cycle it does not act on is exact
        #: per-cycle accounting, so a stale entry costs one tick.
        self._wakeups: list[tuple[int, int]] = []
        #: True outside :meth:`_run_fast`: each cycle ticks every
        #: processor, the stepped reference.  The fast-forward loop ticks
        #: only the due ones and settles the rest lazily.
        self._every_cycle = True
        #: Every pid, the stepped engine's batch under a scheduler.
        self._pids = list(range(config.num_processors))
        #: Pids whose program has not finished.
        self._unfinished: set[int] = set()
        for processor, cache in zip(self.processors, self.caches):
            cache.notify_processor = functools.partial(self._wake, processor)
            if not processor.done:
                self._unfinished.add(processor.pid)
                self._due.add(processor.pid)
        #: Progress bookkeeping for the deadlock watch: ticks that
        #: completed an op or spent a compute cycle, and processors now
        #: in a compute span (each of which computes every cycle).
        self._progress_ticks = 0
        self._computing = 0

        self._check_interval = check_interval
        self._last_progress_sig: tuple = ()
        self._last_progress_cycle = 0
        self._watchdog_deadline: float | None = None
        self._watchdog_budget = 0.0
        self._watchdog_started = 0.0

    @functools.cached_property
    def checker(self) -> InvariantChecker:
        """The coherence-invariant checker, built on first use: a run
        with ``check_interval=0`` never loads it."""
        from repro.verify.invariants import InvariantChecker

        return InvariantChecker.for_system(
            self.caches, self.memory, self.oracle,
            serialized=self.config.strict_verify, fabric=self.bus,
        )

    # -- running ----------------------------------------------------------

    @property
    def done(self) -> bool:
        if self._unfinished:
            return False
        # Once every processor is done no pending op can remain (it
        # would keep its processor stalled), so only detached requests
        # can still be posted -- and the requester index lists them.
        if self.bus.busy or self.bus.has_requesters:
            return False
        if self.io is not None and not self.io.idle:
            return False
        return True

    def step(self) -> None:
        """Advance the whole system by one bus cycle."""
        self.bus.step()
        self._finish_cycle()

    def _wake(self, processor: Processor, completes: bool = False) -> None:
        """The cache hook: settle ``processor`` up to the current cycle
        (before its cache changes what the accounting reads) and, when
        its access completes, tick it on this cycle to collect it."""
        processor.settle(self.clock.cycle)
        if completes:
            self._due.add(processor.pid)

    def _finish_cycle(self) -> None:
        """The processor half of :meth:`step`: tick the processors, in
        pid order (or the scheduler's issue order), and advance the
        clock.  The stepped engine ticks every processor; the
        fast-forward loop ticks only the due ones, and calls this
        directly on cycles where the bus is provably inert (not busy, no
        release owed, no request posted), skipping the no-op
        arbitration."""
        cycle = self.clock.cycle
        due = self._due
        wakeups = self._wakeups
        if self._every_cycle:
            # Everyone ticks, so the schedule due now is moot.
            while wakeups and wakeups[0][0] <= cycle:
                heappop(wakeups)
            due.clear()
            if self.scheduler is None:
                self._tick_every(cycle)
            else:
                self._tick_scheduled(self._pids, cycle)
        else:
            while wakeups and wakeups[0][0] <= cycle:
                due.add(heappop(wakeups)[1])
            if due:
                batch = sorted(due)
                due.clear()
                if self.scheduler is None:
                    processors = self.processors
                    for pid in batch:
                        self._tick(processors[pid], cycle)
                else:
                    self._tick_scheduled(batch, cycle)
        self.stats.cycles += 1
        self.clock.cycle = cycle + 1
        obs = self.obs
        if obs.active and self.stats.cycles >= obs.next_advance:
            obs.on_advance(self.stats.cycles)
        if self._check_interval and self.stats.cycles % self._check_interval == 0:
            self.checker.check_all()

    def _tick_every(self, cycle: int) -> None:
        """The stepped reference: tick every processor on every cycle.

        A tick that only increments one counter is done inline here,
        branch for branch as :meth:`Processor.tick` does it, and leaves
        the processor's schedule as it is: a finished processor, one
        with more than one compute cycle left, and one stalled on its
        cache whose access has not completed (stalled, or waiting for a
        lock, idle or working through its ready section).  Every other
        processor goes through :meth:`_tick`: one ready to issue, one
        whose compute op retires this cycle, one collecting its access,
        and one waiting on the crossbar.
        """
        synced = cycle + 1
        for p in self.processors:
            state = p._state
            if state is _STALLED:
                if p._crossbar_op is None:
                    pend = p.cache._pending
                    if pend is None or not pend.completed:
                        if pend is not None and pend.lock_wait:
                            if (p.wait_mode is _WORK
                                    and p._ready_work_left > 0):
                                p._ready_work_left -= 1
                                p.stats.wait_work_cycles += 1
                            else:
                                p.stats.wait_idle_cycles += 1
                        else:
                            p.stats.stall_cycles += 1
                        p._synced = synced
                        continue
            elif state is _COMPUTING:
                if p._compute_left > 1:
                    p._compute_left -= 1
                    p.stats.compute_cycles += 1
                    p._synced = synced
                    continue
            elif state is _DONE:
                p.stats.done_cycles += 1
                p._synced = synced
                continue
            self._tick(p, cycle)

    def _tick(self, processor: Processor, cycle: int) -> None:
        """Tick one processor and schedule its next tick."""
        stats = processor.stats
        before = stats.ops_completed + stats.compute_cycles
        was_computing = processor._state is _COMPUTING
        processor.tick(cycle)
        if stats.ops_completed + stats.compute_cycles != before:
            self._progress_ticks += 1
        computing = processor._state is _COMPUTING
        if computing is not was_computing:
            self._computing += 1 if computing else -1
        after = processor.next_event_cycle(cycle + 1)
        if after == cycle + 1:
            self._due.add(processor.pid)
        elif after != NEVER:
            heappush(self._wakeups, (after, processor.pid))
        elif processor.done:
            self._unfinished.discard(processor.pid)

    def _tick_scheduled(self, batch: list[int], cycle: int) -> None:
        """Tick the ``batch`` pids with the issue order as a choice point.

        Only processors that will *act* this cycle (issue, retire, or
        collect -- ``next_event_cycle() == cycle``) are permuted; the
        rest merely account idle/compute cycles, which commutes.  The
        default order (ascending pid) is candidate 0, so the base
        scheduler reproduces the unscheduled engine exactly.
        """
        from repro.sim.schedule import ChoiceKind

        scheduler = self.scheduler
        assert scheduler is not None
        due = [self.processors[pid] for pid in batch]
        active = [p for p in due if p.next_event_cycle(cycle) == cycle]
        passive = [p for p in due if p not in active]
        while active:
            index = 0
            if len(active) > 1:
                index = scheduler.choose(
                    ChoiceKind.ISSUE_ORDER,
                    [p.pid for p in active], cycle=cycle,
                )
            self._tick(active.pop(index), cycle)
        for processor in passive:
            self._tick(processor, cycle)

    def run(self, max_cycles: int | None = None,
            max_wall_seconds: float | None = None) -> SimStats:
        """Run to completion (or ``max_cycles``); returns the statistics.

        Both engines produce identical statistics (see the module
        docstring); the ``fast_forward`` attribute picks one.

        ``max_wall_seconds`` arms the engine watchdog: a run that is
        still going after that much wall-clock time is aborted with a
        :class:`~repro.common.errors.WatchdogTimeout` carrying a
        :meth:`diagnostics` snapshot (bus, cache, and lock-queue state)
        so a wedged simulation is debuggable post mortem.  The check
        runs every :data:`WATCHDOG_STRIDE` cycles, so the overshoot is
        bounded by the wall time of one stride.
        """
        self.arm_watchdog(max_wall_seconds)
        if self.fast_forward:
            self._every_cycle = False
            try:
                return self._run_fast(max_cycles)
            finally:
                self._every_cycle = True
        horizon = self.config.deadlock_horizon
        step = self.step
        watch = self._watch_progress
        stats = self.stats
        deadline = self._watchdog_deadline
        countdown = 0
        while not self.done:
            if max_cycles is not None and stats.cycles >= max_cycles:
                break
            if deadline is not None:
                if countdown == 0:
                    countdown = WATCHDOG_STRIDE
                    self.check_watchdog()
                countdown -= 1
            step()
            watch(horizon)
        return self._finish()

    # -- the wall-clock watchdog ------------------------------------------

    def arm_watchdog(self, max_wall_seconds: float | None) -> None:
        if max_wall_seconds is None:
            self._watchdog_deadline = None
            self._watchdog_budget = 0.0
            self._watchdog_started = 0.0
        else:
            self._watchdog_started = time.monotonic()
            self._watchdog_budget = float(max_wall_seconds)
            self._watchdog_deadline = (self._watchdog_started
                                       + self._watchdog_budget)

    def check_watchdog(self) -> None:
        now = time.monotonic()
        if now < self._watchdog_deadline:
            return
        elapsed = now - self._watchdog_started
        diagnostics = self.diagnostics()
        raise WatchdogTimeout(
            f"simulation exceeded its {self._watchdog_budget:.3g}s "
            f"wall-clock budget at cycle {self.stats.cycles} "
            f"({elapsed:.3g}s elapsed); diagnostics: {diagnostics}",
            diagnostics=diagnostics,
            elapsed_seconds=elapsed,
            budget_seconds=self._watchdog_budget,
        )

    def diagnostics(self) -> dict:
        """A plain-data snapshot of where every component stands --
        what the watchdog dumps when it aborts a wedged run."""
        bus: dict = {
            "busy": bool(self.bus.busy),
            "next_event_cycle": self.bus.next_event_cycle(),
        }
        # The request hint, not has_bus_request: a snapshot must not
        # revalidate (which could abort an optimistic RMW).
        pending_requests = [c.id for c in self.caches
                            if c.has_request_hint()]
        caches = []
        for cache in self.caches:
            pending = cache.pending
            register = getattr(cache, "busy_wait", None)
            caches.append({
                "cache": cache.id,
                "pending_op": (str(pending.op) if pending is not None
                               else None),
                "busy_wait": (
                    {"block": register.block,
                     "phase": register.phase.value,
                     "armed_at": register.armed_at}
                    if register is not None and register.active else None
                ),
            })
        processors = [
            {"pid": p.pid, "done": p.done, "pc": p.pc,
             "state": p._state.name.lower(),
             "ops_completed": p.stats.ops_completed}
            for p in self.processors
        ]
        return {
            "cycle": self.stats.cycles,
            "done": self.done,
            "bus": bus,
            "bus_requests_pending": pending_requests,
            "caches": caches,
            "processors": processors,
            "lock_queue": [
                {"cache": c.id, "block": c.busy_wait.block,
                 "phase": c.busy_wait.phase.value}
                for c in self.caches if c.busy_wait.active
            ],
        }

    def _run_fast(self, max_cycles: int | None) -> SimStats:
        """The event-skip loop: equivalent to the stepped loop, but quiet
        spans are skipped in one step instead of cycle-by-cycle."""
        horizon = self.config.deadlock_horizon
        check = self._check_interval
        stats = self.stats
        clock = self.clock
        bus = self.bus
        due = self._due
        wakeups = self._wakeups
        step = self.step
        watch = self._watch_progress
        while not self.done:
            now = stats.cycles
            if max_cycles is not None and now >= max_cycles:
                break
            # One wall-clock check per event (each iteration may cover an
            # arbitrarily long quiet span, so stride batching is wrong
            # here -- a single iteration is already "many cycles").
            if self._watchdog_deadline is not None:
                self.check_watchdog()
            bus_next = bus.next_event_cycle()
            target = bus_next
            if target > now:
                if due:
                    target = now
                elif wakeups and wakeups[0][0] < target:
                    target = wakeups[0][0]
            # Never jump past a cycle where the stepped engine would act:
            # the deadlock horizon fires on simulated cycles regardless of
            # how they were advanced, the invariant checker observes every
            # check_interval boundary, and max_cycles is a hard stop.
            limit = self._last_progress_cycle + horizon + 1
            if target > limit:
                target = limit
            if check:
                boundary = now + check - now % check
                if target > boundary:
                    target = boundary
            if max_cycles is not None and target > max_cycles:
                target = max_cycles
            if target > now:
                # The skipped cycles' processor counters settle lazily.
                stats.cycles = target
                clock.cycle = target
                # Quiet-span fill: every interval boundary inside the
                # span is sampled here with the (unchanged) counters the
                # stepped engine would have seen on that cycle.
                if self.obs.active and target >= self.obs.next_advance:
                    self.obs.on_advance(target)
                if check and target % check == 0:
                    self.checker.check_all()
                # Every signature component moves exactly when the stepped
                # engine's would, so comparing endpoints sees the changes
                # it would have seen cycle-by-cycle.  A mid-span check can
                # therefore only matter on the one cycle the stepped
                # engine could raise at -- the horizon limit.
                at_max = max_cycles is not None and target >= max_cycles
                if target == limit or at_max:
                    watch(horizon)
                if at_max:
                    break
                # ``done`` can flip inside a quiet span purely by time
                # passing (the final occupancy expiring with every
                # processor finished); neither engine executes that
                # release cycle.
                if self.done:
                    break
            # Execute the event cycle (or the capped boundary) normally.
            # When the bus's own next event lies beyond this cycle it is
            # provably inert here (processors acting now post requests
            # that arbitrate next cycle, exactly as in the stepped
            # engine), so its step can be skipped outright.
            if bus_next > stats.cycles:
                self._finish_cycle()
            else:
                step()
            watch(horizon)
        return self._finish()

    def _finish(self) -> SimStats:
        cycles = self.stats.cycles
        for processor in self.processors:
            processor.settle(cycles)
        if self._check_interval:
            self.checker.check_all()
        self.stats.directory_interference_cycles = sum(
            c.directory.interference_cycles for c in self.caches
        )
        if self.obs.active:
            self.obs.on_run_end(self.stats.cycles)
        return self.stats

    def _watch_progress(self, horizon: int) -> None:
        # O(1) progress signature.  It changes exactly when the sum of
        # every processor's completed ops and compute cycles would: a
        # tick completing an op or computing moves ``_progress_ticks``,
        # and a processor mid compute span computes on every cycle, so
        # while any is (``_computing``) the cycle count stands in.
        # bus_busy_cycles moves exactly when a transaction is recorded
        # (every duration is >= 1), so it is interchangeable with the
        # transaction count as a progress signal.
        stats = self.stats
        signature = (
            self._progress_ticks,
            stats.cycles if self._computing else 0,
            stats.bus_busy_cycles,
            stats.read_hits + stats.write_hits,
        )
        if signature != self._last_progress_sig:
            self._last_progress_sig = signature
            self._last_progress_cycle = stats.cycles
        elif stats.cycles - self._last_progress_cycle > horizon:
            waiting = [p.pid for p in self.processors if not p.done]
            raise DeadlockError(
                f"no progress for {horizon} cycles at cycle "
                f"{stats.cycles}; processors not done: {waiting}"
            )


def run_workload(
    config: SystemConfig,
    programs: Sequence[Program],
    *,
    max_cycles: int | None = None,
    check_interval: int = 0,
    obs: Observability | None = None,
    max_wall_seconds: float | None = None,
) -> SimStats:
    """Build a simulator, run it to completion, and return its stats.

    ``max_wall_seconds`` arms the engine watchdog (see
    :meth:`Simulator.run`)."""
    sim = Simulator(config, programs, check_interval=check_interval, obs=obs)
    return sim.run(max_cycles=max_cycles, max_wall_seconds=max_wall_seconds)
