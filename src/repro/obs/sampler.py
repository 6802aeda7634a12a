"""Time-resolved interval sampling.

The :class:`IntervalSampler` turns the simulator's cumulative counters
into a time series: one row per ``interval`` simulated cycles, plus a
final partial row at run end.  It is driven by the engine's phase
callback (:meth:`on_advance`, called whenever ``stats.cycles`` changes,
once per cycle under the stepped engine and once per bulk skip under
fast-forward).  Counters come from the run's ``SimStats``; the lock
waiter and queue-depth gauges come from the
:class:`~repro.obs.core.Observability` layer's component publication
hooks.

Fast-forward equivalence
------------------------

The series is bit-identical between the stepped and event-skip engines
because every sampled quantity changes *only on event cycles* -- cycles
both engines execute with an ordinary ``step()``:

* bus counters (busy cycles, transaction mix) are recorded in full at
  grant time;
* cache/lock event counters and the waiter/queue-depth gauges move only
  when a grant, snoop, issue, retire, or wake runs;
* the only quantities that change during a quiet span are ``cycles``
  itself and the per-processor accounting buckets, and the sampler
  deliberately excludes the latter.

A boundary crossed inside a quiet span therefore sees exactly the
counter values the stepped engine would have seen on that cycle: the
stepped engine fills the span cycle-by-cycle without touching any
sampled counter, and the fast-forward engine fills all boundaries in
``(from, to]`` in one call before executing the span-ending event.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:
    from repro.sim.stats import SimStats


class IntervalSampler:
    """Emits one sample row per interval boundary of simulated time."""

    def __init__(self, interval: int = 100) -> None:
        if interval < 1:
            raise ValueError("sample interval must be >= 1 cycle")
        self.interval = interval
        self.samples: list[dict] = []
        self._stats: "SimStats | None" = None
        self._gauges: Callable[[], dict] | None = None
        self.next_boundary = interval
        self._last_emitted = 0
        self._prev_cycle = 0
        self._prev_busy = 0
        self._prev_txns = 0

    def attach(self, stats: "SimStats", gauges: Callable[[], dict]) -> None:
        self._stats = stats
        self._gauges = gauges

    def on_advance(self, cycles: int) -> None:
        """Engine phase callback: ``stats.cycles`` just became ``cycles``.

        Emits a row for every interval boundary newly reached or crossed;
        a bulk skip lands every spanned boundary here in one call, with
        identical (unchanged) counters for each -- the quiet-span fill.
        """
        while self.next_boundary <= cycles:
            self._emit(self.next_boundary)
            self.next_boundary += self.interval

    def finalize(self, cycles: int) -> None:
        """Emit the trailing partial interval at run end (idempotent)."""
        if cycles > self._last_emitted:
            self._emit(cycles)

    # -- internals ---------------------------------------------------------

    def _emit(self, cycle: int) -> None:
        stats = self._stats
        assert stats is not None and self._gauges is not None, (
            "sampler used before attach()"
        )
        span = cycle - self._prev_cycle
        busy = stats.bus_busy_cycles
        txns = stats.total_transactions
        gauges = self._gauges()
        self.samples.append({
            "cycle": cycle,
            "bus_busy_cycles": busy,
            "interval_bus_utilization": (
                (busy - self._prev_busy) / (span * stats.buses)
                if span else 0.0
            ),
            "transactions": txns,
            "interval_transactions": txns - self._prev_txns,
            "txn_mix": dict(stats.txn_counts),
            "invalidations": stats.invalidations_received,
            "updates": stats.updates_received,
            "c2c_transfers": stats.cache_to_cache_transfers,
            "memory_fetches": stats.memory_fetches,
            "flushes": stats.flushes,
            "lock_acquisitions": stats.total_lock_acquisitions,
            "failed_lock_attempts": stats.failed_lock_attempts,
            "unlock_broadcasts": stats.unlock_broadcasts,
            "lock_waiters": gauges["lock_waiters"],
            "lock_queue_depth": gauges["lock_queue_depth"],
        })
        self._last_emitted = cycle
        self._prev_cycle = cycle
        self._prev_busy = busy
        self._prev_txns = txns
