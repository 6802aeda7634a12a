"""Simulation statistics.

Every quantity a bench or test asserts on is a named counter here, so the
meaning of each number is defined in exactly one place.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, fields


@dataclass
class ProcessorStats:
    """Per-processor activity breakdown (cycles sum to the run length)."""

    ops_completed: int = 0
    reads: int = 0
    writes: int = 0
    compute_cycles: int = 0
    #: Cycles stalled waiting for the cache/bus to service an access.
    stall_cycles: int = 0
    #: Cycles idle while busy-waiting for a lock.
    wait_idle_cycles: int = 0
    #: Cycles doing useful ready-section work while busy-waiting (E.4).
    wait_work_cycles: int = 0
    #: Cycles idle after the program finished.
    done_cycles: int = 0
    lock_acquisitions: int = 0
    lock_hold_cycles: int = 0

    # Compact pickle transport: a bare value tuple instead of the
    # instance ``__dict__``.  Sweep workers ship one SimStats (with one
    # ProcessorStats per processor) back per point, so the transport
    # size scales with the sweep -- dropping the per-field key strings
    # keeps the IPC payload lean.
    def __getstate__(self):
        return tuple(getattr(self, name) for name in _PROCESSOR_STATS_FIELDS)

    def __setstate__(self, state) -> None:
        for name, value in zip(_PROCESSOR_STATS_FIELDS, state):
            setattr(self, name, value)

    @property
    def busy_cycles(self) -> int:
        return self.compute_cycles + self.wait_work_cycles

    @property
    def total_cycles(self) -> int:
        return (
            self.compute_cycles
            + self.stall_cycles
            + self.wait_idle_cycles
            + self.wait_work_cycles
            + self.done_cycles
        )


@dataclass
class SimStats:
    """System-wide counters collected during one simulation run."""

    cycles: int = 0
    #: Busy cycles summed over every bus the fabric arbitrates.
    bus_busy_cycles: int = 0
    #: How many buses the fabric arbitrates (set by the engine).
    buses: int = 1
    #: Transaction counts / bus cycles keyed by ``BusOp.name``.
    txn_counts: Counter = field(default_factory=Counter)
    txn_cycles: Counter = field(default_factory=Counter)
    #: Cycles processor-initiated requests spent queued for the bus
    #: (posted -> granted), and how many grants the total covers.
    bus_wait_cycles: int = 0
    bus_waits: int = 0

    # Cache-level events.
    read_hits: int = 0
    read_misses: int = 0
    write_hits: int = 0
    write_misses: int = 0
    #: Write hits that changed a block's status from clean to dirty
    #: (the Feature-3 interference quantity, Bitar 1985).
    write_hits_to_clean: int = 0
    invalidations_received: int = 0
    updates_received: int = 0
    cache_to_cache_transfers: int = 0
    memory_fetches: int = 0
    #: Fetches served by memory although other caches held copies, because
    #: the source had been lost (Feature 8 ``MEM``).
    source_losses: int = 0
    #: Read-source arbitrations performed (Feature 8 ``ARB``, Illinois).
    source_arbitrations: int = 0
    flushes: int = 0
    purges: int = 0
    #: Fetches avoided by write-without-fetch (Feature 9).
    fetches_avoided: int = 0

    # Synchronization events.
    lock_acquisitions: int = 0
    lock_waits_started: int = 0
    unlock_broadcasts: int = 0
    #: Unlock broadcasts with no waiter left to take the lock.
    spurious_unlock_broadcasts: int = 0
    #: Test-and-set attempts that found the lock held (the bus retries the
    #: busy-wait register eliminates, Section E.4).
    failed_lock_attempts: int = 0
    rmw_aborts: int = 0
    memory_lock_writes: int = 0

    # Verification counters.
    stale_reads: int = 0
    #: Writes that serialized after a newer write to the same word
    #: (write-write conflicts; classic write-through only).
    lost_updates: int = 0
    coherence_violations: int = 0

    # Directory interference (Feature 3): cycles where a processor-side
    # status write collided with a bus-side directory access.
    directory_interference_cycles: int = 0

    processors: dict[int, ProcessorStats] = field(default_factory=dict)

    def processor(self, pid: int) -> ProcessorStats:
        if pid not in self.processors:
            self.processors[pid] = ProcessorStats()
        return self.processors[pid]

    # Compact pickle transport (see ProcessorStats.__getstate__): the
    # Counters travel as plain dicts and are rebuilt on load.
    def __getstate__(self):
        return tuple(
            dict(value) if isinstance(value, Counter) else value
            for value in (getattr(self, name) for name in _SIM_STATS_FIELDS)
        )

    def __setstate__(self, state) -> None:
        for name, value in zip(_SIM_STATS_FIELDS, state):
            if name in ("txn_counts", "txn_cycles"):
                value = Counter(value)
            setattr(self, name, value)

    # Derived quantities -----------------------------------------------

    @property
    def bus_utilization(self) -> float:
        """The share of cycles a bus is busy, averaged over the buses
        the fabric arbitrates."""
        if self.cycles == 0:
            return 0.0
        return self.bus_busy_cycles / (self.cycles * self.buses)

    @property
    def total_transactions(self) -> int:
        return sum(self.txn_counts.values())

    @property
    def mean_bus_wait(self) -> float:
        """Mean arbitration queueing delay per granted request."""
        if self.bus_waits == 0:
            return 0.0
        return self.bus_wait_cycles / self.bus_waits

    @property
    def total_reads(self) -> int:
        return self.read_hits + self.read_misses

    @property
    def total_writes(self) -> int:
        return self.write_hits + self.write_misses

    @property
    def write_hit_to_clean_frequency(self) -> float:
        """Write hits to clean blocks per memory reference (Bitar 1985)."""
        refs = self.total_reads + self.total_writes
        if refs == 0:
            return 0.0
        return self.write_hits_to_clean / refs

    @property
    def total_processor_busy_cycles(self) -> int:
        return sum(p.busy_cycles for p in self.processors.values())

    @property
    def total_lock_acquisitions(self) -> int:
        """Lock acquisitions counted at the processors (covers both
        cache-state locks and spin-acquire successes)."""
        return sum(p.lock_acquisitions for p in self.processors.values())

    @property
    def total_wait_cycles(self) -> int:
        return sum(
            p.wait_idle_cycles + p.wait_work_cycles
            for p in self.processors.values()
        )

    def record_txn(self, op_name: str, busy_cycles: int) -> None:
        self.txn_counts[op_name] += 1
        self.txn_cycles[op_name] += busy_cycles
        self.bus_busy_cycles += busy_cycles

    def to_json(self, *, indent: int | None = 2) -> str:
        """Full JSON dump: headline counters, per-transaction breakdown,
        and per-processor cycle accounting -- stamped with the artifact
        ``schema_version``."""
        import json

        from repro.common.schema import stamp

        return json.dumps(stamp(self.to_payload()), indent=indent)

    def to_payload(self) -> dict:
        """The :meth:`to_json` document as plain data (unstamped)."""
        payload = dict(self.to_dict())
        payload["txn_counts"] = dict(self.txn_counts)
        payload["txn_cycles"] = dict(self.txn_cycles)
        payload["mean_bus_wait"] = round(self.mean_bus_wait, 3)
        payload["lost_updates"] = self.lost_updates
        payload["write_hits_to_clean"] = self.write_hits_to_clean
        payload["fetches_avoided"] = self.fetches_avoided
        payload["source_losses"] = self.source_losses
        payload["processors"] = {
            pid: {
                "ops_completed": p.ops_completed,
                "reads": p.reads,
                "writes": p.writes,
                "compute_cycles": p.compute_cycles,
                "stall_cycles": p.stall_cycles,
                "wait_idle_cycles": p.wait_idle_cycles,
                "wait_work_cycles": p.wait_work_cycles,
                "done_cycles": p.done_cycles,
                "lock_acquisitions": p.lock_acquisitions,
                "lock_hold_cycles": p.lock_hold_cycles,
            }
            for pid, p in sorted(self.processors.items())
        }
        return payload

    def to_dict(self) -> dict:
        """Flatten the headline counters for reporting."""
        return {
            "cycles": self.cycles,
            "bus_busy_cycles": self.bus_busy_cycles,
            "bus_utilization": round(self.bus_utilization, 4),
            "transactions": self.total_transactions,
            "read_hits": self.read_hits,
            "read_misses": self.read_misses,
            "write_hits": self.write_hits,
            "write_misses": self.write_misses,
            "c2c_transfers": self.cache_to_cache_transfers,
            "memory_fetches": self.memory_fetches,
            "flushes": self.flushes,
            "invalidations": self.invalidations_received,
            "updates": self.updates_received,
            "lock_acquisitions": self.lock_acquisitions,
            "failed_lock_attempts": self.failed_lock_attempts,
            "unlock_broadcasts": self.unlock_broadcasts,
            "stale_reads": self.stale_reads,
        }


#: Field orders for the compact pickle transport (dataclass field order
#: is stable across processes running the same code).
_PROCESSOR_STATS_FIELDS = tuple(f.name for f in fields(ProcessorStats))
_SIM_STATS_FIELDS = tuple(f.name for f in fields(SimStats))
