"""The observability layer: wiring, publication hooks, and results.

One :class:`Observability` instance rides along one simulation run.  The
:class:`~repro.sim.engine.Simulator` binds it to the run's ``SimStats``
(the sampler's counter feed) and hands it to the bus, caches, and
processors, which publish into it through the ``record_*`` hooks.
``obs.active`` is the simulator's one instrumentation gate: every call
site is guarded by ``if obs.active:``, so with observability disabled
(the shared :data:`NULL_OBS` null object) the hot path costs exactly
one attribute check.

Outputs are collected into an :class:`ObsResult`, a plain-data bundle
(picklable, JSON-able) of the interval sample series, the metric
registry snapshot, and the timeline slices -- the input to the heatmap
and exporter passes in :mod:`repro.obs.heatmap` / :mod:`repro.obs.export`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.obs.registry import MetricRegistry
from repro.obs.sampler import IntervalSampler

if TYPE_CHECKING:
    from repro.sim.stats import SimStats


@dataclass
class ObsResult:
    """Everything one observed run produced, as plain data."""

    interval: int
    cycles: int
    samples: list[dict] = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    slices: list[dict] = field(default_factory=list)
    #: Causal spans (``tracing=True`` runs only; see repro.obs.tracing).
    spans: list[dict] = field(default_factory=list)
    #: Reduced attribution report dict (``tracing=True`` runs only).
    attribution: dict | None = None

    def to_dict(self) -> dict:
        return {
            "interval": self.interval,
            "cycles": self.cycles,
            "samples": self.samples,
            "metrics": self.metrics,
            "slices": self.slices,
            "spans": self.spans,
            "attribution": self.attribution,
        }


class NullObservability:
    """The disabled layer: ``active`` is False.

    Every hook call site is guarded by ``obs.active``, so the null object
    carries no hooks: an unguarded call fails loudly instead of silently
    doing nothing.  Shared across simulators, hence it refuses to be
    bound to a run.
    """

    active = False
    next_advance = 0

    def bind(self, stats: "SimStats") -> None:
        raise RuntimeError(
            "cannot bind the shared null observability; construct the "
            "simulator with obs=Observability(...)"
        )


#: Module-level null object used whenever observability is disabled.
NULL_OBS = NullObservability()


class Observability:
    """Metric registry + interval sampler + timeline collection."""

    active = True

    def __init__(self, interval: int = 100, *, tracing: bool = False) -> None:
        self.registry = MetricRegistry()
        self.sampler = IntervalSampler(interval)
        #: The next ``stats.cycles`` value at which :meth:`on_advance`
        #: has sampling work to do.  The engine checks this plain
        #: attribute inline so the per-cycle cost of an attached
        #: observer is one comparison, not a call into the sampler.
        self.next_advance = self.sampler.next_boundary
        self.slices: list[dict] = []
        #: Causal span tracer (``tracing=True``); every hook below
        #: forwards to it, and it only ever sees event cycles, so its
        #: output is engine-independent.
        self.tracer = None
        if tracing:
            from repro.obs.tracing import SpanTracer

            self.tracer = SpanTracer(self.registry)
        self._stats: "SimStats | None" = None
        #: Lock bookkeeping for handoffs, queue depth, and wait slices.
        self._last_owner: dict[int, int] = {}
        self._open_waits: dict[int, tuple[int, int]] = {}  # pid -> (block, start)

        reg = self.registry
        self._bus_txns = reg.counter(
            "bus_txns_total", "bus transactions granted",
            label_names=("op", "bus"))
        self._bus_txn_cycles = reg.histogram(
            "bus_txn_cycles", "bus occupancy per transaction (cycles)",
            label_names=("op",))
        self._invalidations = reg.counter(
            "invalidations_total", "invalidations received, by block",
            label_names=("block",))
        self._c2c = reg.counter(
            "c2c_transfers_total", "cache-to-cache supplies, by block",
            label_names=("block",))
        self._source_losses = reg.counter(
            "source_losses_total",
            "memory fetches despite cached copies (Feature 8 MEM), by block",
            label_names=("block",))
        self._unlock_broadcasts = reg.counter(
            "unlock_broadcasts_total", "unlock broadcasts, by block",
            label_names=("block", "spurious"))
        self._lock_acquisitions = reg.counter(
            "lock_acquisitions_total", "lock acquisitions, by block",
            label_names=("block",))
        self._lock_handoffs = reg.counter(
            "lock_handoffs_total",
            "acquisitions by a different processor than the previous owner",
            label_names=("block",))
        self._lock_hold = reg.histogram(
            "lock_hold_cycles", "lock hold time (cycles)",
            label_names=("block",))
        self._lock_wait = reg.histogram(
            "lock_wait_cycles", "lock wait/spin time (cycles)",
            label_names=("block",))
        self._cluster_hops = reg.counter(
            "cluster_hops_total",
            "inter-cluster link crossings, by (src, dst) cluster",
            label_names=("src", "dst"))
        self._directory_msgs = reg.counter(
            "directory_msgs_total",
            "directory point-to-point messages, by kind and home bank",
            label_names=("kind", "bank"))

    # -- wiring (called by the Simulator) ----------------------------------

    def bind(self, stats: "SimStats") -> None:
        """Attach to one run's statistics, the sampler's counter feed.

        Rebinding to a different run is an error (construct a fresh
        Observability).
        """
        if self._stats is not None:
            if self._stats is stats:
                return
            raise RuntimeError(
                "Observability is already bound to a run; use one "
                "instance per simulation"
            )
        self._stats = stats
        self.sampler.attach(stats, self._gauges)

    def _gauges(self) -> dict:
        depth: dict[int, int] = {}
        for block, _start in self._open_waits.values():
            depth[block] = depth.get(block, 0) + 1
        return {
            "lock_waiters": len(self._open_waits),
            "lock_queue_depth": dict(sorted(depth.items())),
        }

    # -- engine phase callback ---------------------------------------------

    def on_advance(self, cycles: int) -> None:
        self.sampler.on_advance(cycles)
        self.next_advance = self.sampler.next_boundary

    def on_run_end(self, cycles: int) -> None:
        self.sampler.finalize(cycles)
        if self.tracer is not None:
            self.tracer.finalize(cycles)

    # -- component publication hooks ---------------------------------------

    def record_bus_txn(self, cycle: int, duration: int, op: str,
                       block: int, requester: int, bus: int = 0,
                       *, outcome: str | None = None) -> None:
        self._bus_txns.inc(op=op, bus=bus)
        self._bus_txn_cycles.observe(duration, op=op)
        self.slices.append({
            "track": f"bus{bus}", "name": op, "start": cycle,
            "dur": duration,
            "args": {"block": block, "requester": requester},
        })
        if self.tracer is not None:
            self.tracer.txn_end(cycle, duration, op, block, requester,
                                bus=bus, outcome=outcome)

    def record_txn_begin(self, cycle: int, op: str, block: int,
                         requester: int, bus: int = 0) -> None:
        if self.tracer is not None:
            self.tracer.txn_begin(cycle, op, block, requester, bus=bus)

    def record_invalidation(self, block: int, cache: int) -> None:
        self._invalidations.inc(block=block)
        if self.tracer is not None:
            self.tracer.invalidation(block, cache)

    def record_c2c(self, block: int, supplier: int) -> None:
        self._c2c.inc(block=block)

    def record_source_loss(self, block: int) -> None:
        self._source_losses.inc(block=block)

    def record_unlock_broadcast(self, block: int, spurious: bool) -> None:
        self._unlock_broadcasts.inc(block=block, spurious=spurious)

    def record_cluster_hop(self, cycle: int, block: int,
                           src_cluster: int, dst_cluster: int) -> None:
        self._cluster_hops.inc(src=src_cluster, dst=dst_cluster)
        self.slices.append({
            "track": "link", "name": f"hop {src_cluster}->{dst_cluster}",
            "start": cycle, "dur": 1,
            "args": {"block": block, "src": src_cluster,
                     "dst": dst_cluster},
        })

    def record_directory_msgs(self, cycle: int, kind: str, block: int,
                              bank: int, count: int = 1) -> None:
        self._directory_msgs.inc(count, kind=kind, bank=bank)

    def record_wait_start(self, pid: int, block: int, cycle: int) -> None:
        # Re-arms (lost post-unlock arbitration) keep the original start.
        if pid not in self._open_waits:
            self._open_waits[pid] = (block, cycle)
        if self.tracer is not None:
            self.tracer.wait_start(pid, block, cycle)

    def record_wait_cancelled(self, pid: int, cycle: int) -> None:
        open_wait = self._open_waits.pop(pid, None)
        if open_wait is not None:
            block, start = open_wait
            self._close_wait(pid, block, start, cycle, cancelled=True)
        if self.tracer is not None:
            self.tracer.wait_cancelled(pid, cycle)

    def record_lock_acquired(self, pid: int, block: int, cycle: int) -> None:
        self._lock_acquisitions.inc(block=block)
        previous = self._last_owner.get(block)
        if previous is not None and previous != pid:
            self._lock_handoffs.inc(block=block)
        self._last_owner[block] = pid
        open_wait = self._open_waits.pop(pid, None)
        if open_wait is not None:
            wait_block, start = open_wait
            self._close_wait(pid, wait_block, start, cycle, cancelled=False)
        if self.tracer is not None:
            self.tracer.lock_acquired(pid, block, cycle)

    def _close_wait(self, pid: int, block: int, start: int, cycle: int,
                    cancelled: bool) -> None:
        self._lock_wait.observe(cycle - start, block=block)
        self.slices.append({
            "track": f"cpu{pid}",
            "name": f"wait {block}" + (" (cancelled)" if cancelled else ""),
            "start": start, "dur": cycle - start,
            "args": {"block": block},
        })

    def record_lock_released(self, pid: int, block: int,
                             since: int, cycle: int) -> None:
        self._lock_hold.observe(cycle - since, block=block)
        self.slices.append({
            "track": f"cpu{pid}", "name": f"hold {block}",
            "start": since, "dur": cycle - since,
            "args": {"block": block},
        })
        if self.tracer is not None:
            self.tracer.lock_released(pid, block, since, cycle)

    # -- tracing-only hooks (no registry work; forwarded verbatim) ---------

    def record_request_posted(self, cache: int, op_kind: str, block: int,
                              cycle: int) -> None:
        if self.tracer is not None:
            self.tracer.request_posted(cache, op_kind, block, cycle)

    def record_request_aborted(self, cache: int, cycle: int) -> None:
        if self.tracer is not None:
            self.tracer.request_aborted(cache, cycle)

    def record_local_hit(self, pid: int, cycle: int) -> None:
        if self.tracer is not None:
            self.tracer.local_hit(pid, cycle)

    def record_spin_step(self, pid: int, cycle: int) -> None:
        if self.tracer is not None:
            self.tracer.spin_step(pid, cycle)

    def record_wait_wakeup(self, cache: int, block: int, cycle: int) -> None:
        if self.tracer is not None:
            self.tracer.wait_wakeup(cache, block, cycle)

    def record_wait_rearmed(self, cache: int, cycle: int) -> None:
        if self.tracer is not None:
            self.tracer.wait_rearmed(cache, cycle)

    def record_crossbar(self, pid: int, start: int, until: int) -> None:
        if self.tracer is not None:
            self.tracer.crossbar(pid, start, until)

    def record_unlock_queued(self, cache: int, block: int,
                             cycle: int) -> None:
        if self.tracer is not None:
            self.tracer.unlock_queued(cache, block, cycle)

    def record_lock_spill(self, cache: int, block: int, cycle: int) -> None:
        if self.tracer is not None:
            self.tracer.lock_spill(cache, block, cycle)

    # -- results -----------------------------------------------------------

    def result(self) -> ObsResult:
        """Reduce the run to plain data (safe to pickle across the
        process-pool sweep path)."""
        cycles = self._stats.cycles if self._stats is not None else 0
        spans: list[dict] = []
        attribution = None
        if self.tracer is not None:
            spans = list(self.tracer.spans)
            # Attribution needs the finalized tallies (open episodes are
            # closed by on_run_end); a mid-run reduction keeps the spans
            # but skips the exact accounting.
            if self._stats is not None and self.tracer.end_cycle is not None:
                from repro.obs.attribution import compute_attribution

                attribution = compute_attribution(
                    self.tracer, self._stats).to_dict()
        return ObsResult(
            interval=self.sampler.interval,
            cycles=cycles,
            samples=list(self.sampler.samples),
            metrics=self.registry.snapshot(),
            slices=list(self.slices),
            spans=spans,
            attribution=attribution,
        )


def _as_result(obs: "Observability | ObsResult") -> ObsResult:
    """Accept either a live layer or an already-reduced result."""
    if isinstance(obs, ObsResult):
        return obs
    return obs.result()
