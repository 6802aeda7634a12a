"""The resilient sweep executor.

:meth:`repro.analysis.sweeps.Sweep.execute` delegates here.  Where the
old executor was ``pool.map`` -- one bad point aborted the whole sweep
and discarded every completed result, and a hung worker blocked forever
-- this one runs each point as its own future under an
:class:`ExecutionPolicy`:

* **per-point wall-clock timeouts** -- a point that exceeds
  ``policy.timeout`` seconds is declared hung; its worker pool is torn
  down (the only way to preempt a stuck ``ProcessPoolExecutor`` worker)
  and rebuilt, and every other in-flight point is requeued untouched;
* **bounded retries** -- a point that raises, returns corrupt
  statistics, or times out is retried up to ``policy.max_attempts``
  times with seeded exponential backoff + jitter (deterministic per
  ``(seed, index, attempt)``, so two runs with the same seed retry
  identically);
* **broken-pool recovery** -- a worker death (e.g. SIGKILL) breaks the
  pool; the executor respawns it, requeues the in-flight points, and
  uses the :class:`~repro.faults.FaultPlan` (when one is injected) to
  attribute the death to the killer point rather than penalizing
  innocent neighbours.  A point implicated in ``max_attempts`` pool
  breaks is **quarantined**;
* **graceful degradation** -- with ``policy.keep_going`` every healthy
  point's result survives; failed points carry a terminal status
  (``failed`` / ``timeout`` / ``quarantined``) and ``NaN`` metric
  values.  Without it, the first exhausted point raises
  :class:`~repro.common.errors.SweepPointError` naming the point.

Retry, timeout, and restart counts are published into a
:class:`~repro.obs.registry.MetricRegistry` whose snapshot rides on the
sweep result.
"""

from __future__ import annotations

import heapq
import itertools
import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from queue import Empty, SimpleQueue
from typing import Callable, Sequence

from repro.common.errors import SweepPointError
from repro.faults.plan import CorruptStats, FaultKind, FaultPlan, _roll
from repro.obs.registry import MetricRegistry

# -- statuses ---------------------------------------------------------------

#: The point ran and produced valid statistics.
STATUS_OK = "ok"
#: The point exhausted its attempts raising or returning corrupt stats.
STATUS_FAILED = "failed"
#: The point exhausted its attempts exceeding the wall-clock timeout.
STATUS_TIMEOUT = "timeout"
#: The point was implicated in repeated worker-pool deaths.
STATUS_QUARANTINED = "quarantined"

POINT_STATUSES = (STATUS_OK, STATUS_FAILED, STATUS_TIMEOUT,
                  STATUS_QUARANTINED)

#: Retry reasons (metric label values).
_REASON_RAISE = "raise"
_REASON_CORRUPT = "corrupt"
_REASON_TIMEOUT = "timeout"
_REASON_KILL = "kill"

_REASON_STATUS = {
    _REASON_RAISE: STATUS_FAILED,
    _REASON_CORRUPT: STATUS_FAILED,
    _REASON_TIMEOUT: STATUS_TIMEOUT,
    _REASON_KILL: STATUS_QUARANTINED,
}


#: Backoff before a point's n-th retry: ``BACKOFF_BASE * 2**(n-1)``
#: seconds, capped at ``BACKOFF_MAX``, stretched by up to
#: ``BACKOFF_JITTER`` of itself.
BACKOFF_BASE = 0.05
BACKOFF_MAX = 2.0
BACKOFF_JITTER = 0.5
#: Worker-pool rebuilds tolerated before the sweep gives up.
MAX_POOL_RESTARTS = 5
#: Future-polling granularity; bounds timeout-detection latency.
POLL_INTERVAL = 0.05


@dataclass(frozen=True)
class ExecutionPolicy:
    """How hard the executor tries before giving up on a point."""

    #: Attributed executions of one point before it is finalized.
    max_attempts: int = 2
    #: Per-point wall-clock limit in seconds (None = unlimited); only
    #: enforceable with ``jobs > 1`` (a serial run cannot be preempted).
    timeout: float | None = None
    #: Seeds the backoff jitter (and the fault plan's probabilistic
    #: draws go through the plan's own seed).
    seed: int = 0
    #: Record failures and keep sweeping instead of raising on the
    #: first exhausted point.
    keep_going: bool = False
    #: Chaos mode: inject these faults into the workers.
    faults: FaultPlan | None = None

    def backoff_delay(self, index: int, failures: int) -> float:
        """Deterministic backoff before retry ``failures`` of point
        ``index``: exponential in the failure count, jittered by a hash
        of ``(seed, index, failures)`` -- no shared RNG, so the delay
        does not depend on completion order."""
        base = min(BACKOFF_BASE * (2 ** max(0, failures - 1)), BACKOFF_MAX)
        return base * (1.0 + BACKOFF_JITTER * _roll(
            self.seed, index, failures))


@dataclass
class PointOutcome:
    """Per-point execution verdict, serialized into sweep results."""

    index: int
    x: object
    status: str = STATUS_OK
    #: Attributed executions (pool-break requeues of innocent points do
    #: not count, keeping this deterministic under a fault seed).
    attempts: int = 1
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "x": self.x if isinstance(self.x, (int, float, str)) else str(self.x),
            "status": self.status,
            "attempts": self.attempts,
            "error": self.error,
        }


# -- worker side ------------------------------------------------------------


@dataclass(frozen=True)
class _WorkerFailure:
    """An exception, reduced to plain data so it pickles back safely."""

    exc_type: str
    message: str


#: The point callable, installed once per worker by :func:`_init_worker`
#: so it is pickled once per process instead of once per submitted point.
_WORKER_RUN: Callable | None = None


def _init_worker(run: Callable, warmup: Callable | None) -> None:
    """Process-pool initializer: install the point callable and run the
    optional warmup (config/protocol construction, heavy imports) so the
    first point of every worker pays no cold-start cost."""
    global _WORKER_RUN
    _WORKER_RUN = run
    if warmup is not None:
        try:
            warmup()
        except Exception:  # noqa: BLE001 - warmup is best-effort
            pass


def _pool_point(x: object, index: int, attempt: int,
                faults: FaultPlan | None):
    """Worker-side wrapper over the initializer-installed callable."""
    assert _WORKER_RUN is not None
    return _execute_point(_WORKER_RUN, x, index, attempt, faults)


def _execute_point(run: Callable, x: object, index: int, attempt: int,
                   faults: FaultPlan | None, in_worker: bool = True):
    """Run one point (module-level so the pool can pickle it).

    Faults fire *instead of* the real run.  In the serial path
    (``in_worker=False``) a ``kill`` degrades to a ``raise`` -- dying
    would take the orchestrator down with it.
    """
    try:
        if faults is not None:
            kind = faults.fault_for(index, attempt)
            if kind is FaultKind.KILL and not in_worker:
                kind = FaultKind.RAISE
            if kind is not None:
                from repro.faults.plan import apply_fault

                return apply_fault(kind, index=index, attempt=attempt,
                                   hang_seconds=faults.hang_seconds)
        return run(x)
    except Exception as exc:  # noqa: BLE001 - reduced to data for the parent
        return _WorkerFailure(exc_type=type(exc).__name__, message=str(exc))


def _classify(result) -> str | None:
    """None when ``result`` is usable, else the retry reason."""
    from repro.analysis.sweeps import ObservedPoint
    from repro.sim.stats import SimStats

    if isinstance(result, _WorkerFailure):
        # An engine-watchdog abort inside the point is a timeout, not a
        # generic failure -- same verdict as an executor-level hang.
        if result.exc_type == "WatchdogTimeout":
            return _REASON_TIMEOUT
        return _REASON_RAISE
    if isinstance(result, ObservedPoint):
        result = result.stats
    if isinstance(result, CorruptStats) or not isinstance(result, SimStats):
        return _REASON_CORRUPT
    cycles = getattr(result, "cycles", None)
    if not isinstance(cycles, int) or cycles < 0:
        return _REASON_CORRUPT
    return None


# -- the executor -----------------------------------------------------------


@dataclass
class _Task:
    index: int
    x: object
    attempt: int = 1
    #: Attributed failures so far (raise/corrupt/timeout/kill).
    failures: int = 0
    #: Unattributed pool breaks this point was caught in.
    pool_failures: int = 0
    started_at: float | None = None
    last_error: str | None = None


@dataclass
class ExecutionReport:
    """What :func:`execute_points` hands back to the Sweep."""

    outcomes: list[PointOutcome]
    #: Per-point payloads (run() return values) in sweep order; ``None``
    #: for points that did not finish OK.
    payloads: list
    registry: MetricRegistry = field(default_factory=MetricRegistry)

    @property
    def ok(self) -> bool:
        return all(outcome.ok for outcome in self.outcomes)

    def summary(self) -> dict:
        """Deterministic plain-data view of the resilience counters."""
        statuses: dict[str, int] = {}
        for outcome in self.outcomes:
            statuses[outcome.status] = statuses.get(outcome.status, 0) + 1
        retries: dict[str, int] = {}
        retry_counter = self.registry.get("sweep_point_retries_total")
        if retry_counter is not None:
            for key, value in sorted(retry_counter.values.items()):
                retries[key[0]] = int(value)
        restarts: dict[str, int] = {}
        restart_counter = self.registry.get("sweep_pool_restarts_total")
        if restart_counter is not None:
            for key, value in sorted(restart_counter.values.items()):
                restarts[key[0]] = int(value)
        return {
            "statuses": {s: statuses[s] for s in POINT_STATUSES
                         if s in statuses},
            "retries": retries,
            "pool_restarts": restarts,
        }


def execute_points(
    run: Callable,
    xs: Sequence,
    *,
    jobs: int = 1,
    policy: ExecutionPolicy | None = None,
    warmup: Callable | None = None,
    progress: Callable | None = None,
) -> ExecutionReport:
    """Execute every point of ``xs`` under ``policy``; the entry point
    used by :meth:`repro.analysis.sweeps.Sweep.execute`.

    ``warmup`` (picklable, no arguments) runs once in every worker
    process before its first point -- the place for config/protocol
    construction and heavy imports.

    ``progress`` (when given) is called in the orchestrating process as
    ``progress(done, total, statuses)`` each time a point reaches a
    terminal status, with ``statuses`` a ``{status: count}`` view of the
    executor's own counters."""
    policy = policy or ExecutionPolicy()
    executor = _Executor(run, xs, policy, jobs, warmup=warmup,
                         progress=progress)
    return executor.execute()


class _Executor:
    def __init__(self, run: Callable, xs: Sequence,
                 policy: ExecutionPolicy, jobs: int,
                 warmup: Callable | None = None,
                 progress: Callable | None = None) -> None:
        self.run = run
        self.xs = list(xs)
        self.policy = policy
        self.jobs = jobs
        self.warmup = warmup
        self.progress = progress
        self.registry = MetricRegistry()
        self._retries = self.registry.counter(
            "sweep_point_retries_total",
            "retries the sweep executor performed, by reason",
            ("reason",))
        self._restarts = self.registry.counter(
            "sweep_pool_restarts_total",
            "worker-pool rebuilds, by cause",
            ("cause",))
        self._points = self.registry.counter(
            "sweep_points_total",
            "finalized sweep points, by status",
            ("status",))
        self.outcomes: list[PointOutcome | None] = [None] * len(self.xs)
        self.payloads: list = [None] * len(self.xs)
        self._abort: SweepPointError | None = None
        # Pool-loop state: points ready to submit, points backing off
        # before a retry (a heap of ``(ready_at, tie_break, task)``), the
        # in-flight futures, and the finished ones in completion order
        # (put there by their done-callbacks, so a pass costs
        # O(finished), not O(in flight)).
        self._queue: deque[_Task] = deque()
        self._delayed: list[tuple[float, int, _Task]] = []
        self._order = itertools.count()
        self._pending: dict = {}
        self._done: SimpleQueue = SimpleQueue()
        self._pool_restarts = 0

    def execute(self) -> ExecutionReport:
        if self.jobs <= 1:
            self._execute_serial()
        else:
            self._execute_parallel()
        if self._abort is not None:
            raise self._abort
        return ExecutionReport(outcomes=list(self.outcomes),
                               payloads=list(self.payloads),
                               registry=self.registry)

    # -- shared bookkeeping ------------------------------------------------

    def _finalize(self, task: _Task, status: str, payload=None) -> None:
        outcome = PointOutcome(index=task.index, x=task.x, status=status,
                               attempts=max(task.attempt, 1),
                               error=task.last_error
                               if status != STATUS_OK else None)
        self.outcomes[task.index] = outcome
        self.payloads[task.index] = payload
        self._points.inc(status=status)
        if self.progress is not None:
            statuses = {s: int(self._points.value(status=s))
                        for s in POINT_STATUSES}
            self.progress(sum(statuses.values()), len(self.xs), statuses)
        if status != STATUS_OK and not self.policy.keep_going \
                and self._abort is None:
            self._abort = SweepPointError(
                f"sweep point {task.index} (x={task.x!r}) {status} after "
                f"{outcome.attempts} attempt(s): {task.last_error}",
                x=task.x, index=task.index, attempts=outcome.attempts,
            )

    def _record_failure(self, task: _Task, reason: str, error: str) -> tuple[bool, float]:
        """Count one attributed failure; returns ``(retry, delay)``."""
        task.failures += 1
        task.last_error = error
        self._retries.inc(reason=reason)
        if task.failures >= self.policy.max_attempts:
            self._finalize(task, _REASON_STATUS[reason])
            return False, 0.0
        task.attempt += 1
        return True, self.policy.backoff_delay(task.index, task.failures)

    def _handle_result(self, task: _Task, result) -> tuple[bool, float]:
        """Classify a completed attempt; returns ``(retry, delay)``."""
        reason = _classify(result)
        if reason is None:
            self._finalize(task, STATUS_OK, payload=result)
            return False, 0.0
        if isinstance(result, _WorkerFailure):
            error = (f"point {task.index} (x={task.x!r}) raised "
                     f"{result.exc_type}: {result.message}")
        else:
            error = (f"point {task.index} (x={task.x!r}) returned corrupt "
                     f"statistics ({type(result).__name__})")
        return self._record_failure(task, reason, error)

    # -- serial path -------------------------------------------------------

    def _execute_serial(self) -> None:
        for index, x in enumerate(self.xs):
            task = _Task(index=index, x=x)
            while True:
                result = _execute_point(self.run, x, index, task.attempt,
                                        self.policy.faults, in_worker=False)
                retry, delay = self._handle_result(task, result)
                if not retry:
                    break
                if delay > 0:
                    time.sleep(delay)
            if self._abort is not None:
                return

    # -- pool path ---------------------------------------------------------

    def _execute_parallel(self) -> None:
        """Run every point as its own future on a process pool.

        Each pass moves due retries onto the queue, submits the queue,
        and collects whatever finished within :data:`POLL_INTERVAL`.  A
        broken pool, or a point over the policy's timeout, tears the
        pool down and rebuilds it (:meth:`_restart`).  A sweep that
        finishes every point shuts its idle pool down cleanly; an abort,
        a give-up or an exception tears it down at once."""
        queue, delayed, pending = self._queue, self._delayed, self._pending
        queue.extend(_Task(index=i, x=x) for i, x in enumerate(self.xs))
        pool = self._new_pool()
        finished = False
        try:
            while self._abort is None and (queue or delayed or pending):
                now = time.monotonic()
                while delayed and delayed[0][0] <= now:
                    queue.append(heapq.heappop(delayed)[2])
                broken = self._submit_queue(pool)
                if not broken and pending:
                    broken = self._collect_done()
                elif not pending and delayed:
                    time.sleep(min(max(0.0, delayed[0][0] - now),
                                   BACKOFF_MAX))
                if broken:
                    cause = "broken"
                elif self.policy.timeout is not None and self._time_out_hung():
                    cause = "timeout"
                else:
                    continue
                restarted = self._restart(pool, cause)
                if restarted is None:
                    break
                pool = restarted
            else:
                finished = self._abort is None
        finally:
            if finished:
                pool.shutdown(wait=True)
            else:
                self._kill_pool(pool)

    def _new_pool(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(max_workers=self.jobs,
                                   initializer=_init_worker,
                                   initargs=(self.run, self.warmup))

    @staticmethod
    def _kill_pool(pool: ProcessPoolExecutor) -> None:
        """Tear a pool down *now*, hung workers included."""
        processes = getattr(pool, "_processes", None) or {}
        for process in list(processes.values()):
            try:
                process.terminate()
            except Exception:  # pragma: no cover - already-dead workers
                pass
        pool.shutdown(wait=False, cancel_futures=True)

    def _retry_later(self, task: _Task, ready_at: float) -> None:
        heapq.heappush(self._delayed, (ready_at, next(self._order), task))

    def _submit_queue(self, pool: ProcessPoolExecutor) -> bool:
        """Submit every queued point; True when the pool is broken."""
        queue = self._queue
        while queue:
            task = queue.popleft()
            try:
                future = pool.submit(_pool_point, task.x, task.index,
                                     task.attempt, self.policy.faults)
            except (BrokenProcessPool, RuntimeError):
                queue.appendleft(task)
                return True
            task.started_at = None
            self._pending[future] = task
            future.add_done_callback(self._done.put)
        return False

    def _collect_done(self) -> bool:
        """Handle the futures that finish within one poll interval; True
        when one reports a broken pool (it stays pending, to be requeued
        with the rest)."""
        pending = self._pending
        try:
            done = [self._done.get(timeout=POLL_INTERVAL)]
        except Empty:
            return False
        while not self._done.empty():
            done.append(self._done.get())
        now = time.monotonic()
        for future in done:
            task = pending.pop(future, None)
            if task is None:
                continue  # a future of a pool torn down since
            try:
                result = future.result()
            except BrokenProcessPool:
                pending[future] = task
                return True
            except Exception as exc:  # noqa: BLE001
                retry, delay = self._record_failure(
                    task, _REASON_RAISE,
                    f"point {task.index} (x={task.x!r}) "
                    f"failed in the pool: {exc}")
            else:
                retry, delay = self._handle_result(task, result)
            if retry:
                self._retry_later(task, now + delay)
        return False

    def _time_out_hung(self) -> bool:
        """Declare over-deadline running futures hung; True when any was.

        The hung points take an attributed timeout failure; everything
        else in flight is requeued untouched once the pool is rebuilt.
        """
        now = time.monotonic()
        hung: list = []
        for future, task in self._pending.items():
            if task.started_at is None and future.running():
                task.started_at = now
            elif (task.started_at is not None
                  and now - task.started_at > self.policy.timeout):
                hung.append(future)
        for future in hung:
            task = self._pending.pop(future)
            retry, delay = self._record_failure(
                task, _REASON_TIMEOUT,
                f"point {task.index} (x={task.x!r}) exceeded the "
                f"{self.policy.timeout}s wall-clock timeout "
                f"(attempt {task.attempt})")
            if retry:
                self._retry_later(task, now + delay)
        return bool(hung)

    def _restart(self, pool: ProcessPoolExecutor,
                 cause: str) -> ProcessPoolExecutor | None:
        """Rebuild the pool after a break or a hang, requeueing every
        unfinished point.  Past :data:`MAX_POOL_RESTARTS` the sweep gives
        up instead: every unfinished point fails, and None is returned."""
        self._pool_restarts += 1
        self._restarts.inc(cause=cause)
        tasks = list(self._pending.values()) + list(self._queue)
        tasks += [task for _, _, task in sorted(self._delayed)]
        self._pending.clear()
        self._queue.clear()
        self._delayed.clear()
        if self._pool_restarts > MAX_POOL_RESTARTS:
            for task in tasks:
                task.last_error = (task.last_error or
                                   "worker pool kept breaking; sweep gave up")
                self._finalize(task, STATUS_FAILED)
            return None
        self._kill_pool(pool)
        if cause == "broken":
            self._requeue_after_break(tasks)
        else:
            self._queue.extend(tasks)
        return self._new_pool()

    def _requeue_after_break(self, tasks: list[_Task]) -> None:
        """Requeue survivors of a pool death.  A fault plan attributes
        the death to its killer and spares the innocent; without one,
        every point caught in the break is charged a pool failure and
        quarantined at ``max_attempts`` of them."""
        faults = self.policy.faults
        killers = {task.index for task in tasks
                   if faults is not None
                   and faults.kills(task.index, task.attempt)}
        now = time.monotonic()
        for task in tasks:
            if task.index in killers:
                retry, delay = self._record_failure(
                    task, _REASON_KILL,
                    f"point {task.index} (x={task.x!r}) killed its worker "
                    f"(attempt {task.attempt})")
                if retry:
                    self._retry_later(task, now + delay)
                continue
            if not killers:
                task.pool_failures += 1
                if task.pool_failures >= self.policy.max_attempts:
                    task.last_error = (
                        f"point {task.index} (x={task.x!r}) was in flight "
                        f"for {task.pool_failures} worker-pool deaths")
                    self._finalize(task, STATUS_QUARANTINED)
                    continue
            self._queue.append(task)
