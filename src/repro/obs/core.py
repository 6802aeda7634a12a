"""The observability layer: wiring, publication hooks, and results.

One :class:`Observability` instance rides along one simulation run.  The
:class:`~repro.sim.engine.Simulator` binds it to the run's ``SimStats``
(the sampler's counter feed) and hands it to the bus, caches, and
processors, which publish into it through the ``record_*`` hooks.
``obs.active`` is the simulator's one instrumentation gate: every call
site is guarded by ``if obs.active:``, so with observability disabled
(the shared :data:`~repro.obs.null.NULL_OBS` null object) the hot path
costs exactly one attribute check.

The layer has two tiers:

* **untraced** (always on): the metric registry, the interval sampler,
  and the timeline slices;
* **traced** (``tracing=True``): causal spans, request episodes, the
  per-processor attribution tallies, the lock handoff chains and the
  per-block wait totals (span model: :mod:`repro.obs.tracing`).

Both tiers read one lock table -- open waits by processor, the last
acquirer of each block -- so a lock wait, hold or handoff is tracked
once; with tracing on, the same entries also open and close spans.
Every traced hook fires on an *event* cycle (a grant, snoop, issue,
wake, or retire), never from the per-cycle or quiet-span accounting, so
the spans are bit-identical between the stepped and fast-forward
engines.

A post-unlock race costs the traced tier one call and one span per
lock passage, not one per waiter: the bus reports every waiter an
unlock broadcast woke in one :meth:`Observability.record_waiters_woken`
call, each woken waiter's episode stays a spanless slotted record until
something needs its span, and a waiter that stands down is booked into
its tally and listed on the winner's txn span (``stood_down``).

Outputs are collected into an :class:`ObsResult`, a plain-data bundle
(picklable, JSON-able) of the interval sample series, the metric
registry snapshot, the timeline slices, and (traced) the spans and the
attribution report -- the input to the heatmap and exporter passes in
:mod:`repro.obs.heatmap` / :mod:`repro.obs.export`.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field, fields
from functools import cache
from typing import TYPE_CHECKING

from repro.obs.registry import MetricRegistry
from repro.obs.sampler import IntervalSampler

if TYPE_CHECKING:
    from repro.sim.stats import SimStats

#: Bus operations that complete detached from the issuing cache's
#: pending access (``take_bus_transaction`` pops them ahead of it); a
#: grant for one of these must not close the requester's open episode.
DETACHED_OPS = frozenset({
    "UNLOCK_BROADCAST", "FLUSH_BLOCK", "MEMORY_LOCK_WRITE",
})


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
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(slots=True)
class _Tally:
    """Per-processor raw cycle tallies, accumulated at span close."""

    out_arb: int = 0          # arbitration, out-of-window, not inval-caused
    out_transfer: int = 0     # transfer, out-of-window, not inval-caused
    inval_wait: int = 0       # arb+transfer of inval-forced refetch episodes
    win_stall: int = 0        # arb+transfer of episodes posted in a window
    win_cycles: int = 0       # total lock-wait window cycles
    crossbar_out: int = 0     # crossbar stall outside any window
    crossbar_in: int = 0      # crossbar stall inside a window
    hits_out: int = 0         # local-hit issue cycles outside any window
    episodes: int = 0
    aborted: int = 0


@dataclass(slots=True)
class _Episode:
    """One processor's open stall episode, closed by ``_close_episode``.

    A woken waiter's episode starts without a span: most woken waiters
    lose the post-unlock race and stand down, which is booked on the
    winner's txn span, not as a span of their own.  ``_episode_span``
    builds the span when something first needs it."""

    span: dict | None
    arb_since: int
    in_window: bool           # posted (or woken) inside a lock wait window
    inval: bool = False       # an invalidation-forced refetch
    arb: int = 0
    transfer: int = 0
    phases: int = 1
    #: The unlock broadcast's txn span that woke a spanless episode.
    wake: dict | None = None


def _children(metric):
    """Label values -> the child of ``metric`` bound to them, cached."""
    names = metric.label_names
    return cache(lambda *values: metric.labels(**dict(zip(names, values))))


class Observability:
    """Metric registry + interval sampler + timeline collection, and
    with ``tracing=True`` causal spans and cycle-attribution tallies."""

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
        self._stats: "SimStats | None" = None
        #: Whether the traced tier (spans, episodes, tallies, handoff
        #: chains, block waits) is recorded.
        self.tracing = tracing

        # The lock table, shared by both tiers.
        #: pid -> open wait ``[block, start, wait span]``.
        self._waits: dict[int, list] = {}
        #: block -> ``[last acquirer, acquisition link, last hold span
        #: id]``; the link ``(episode id, wait span id, chain index)``
        #: and the span id are traced only.
        self._locks: dict[int, list] = {}

        # The traced tier.
        self.spans: list[dict] = []
        self.tallies: dict[int, _Tally] = defaultdict(_Tally)
        #: block -> ordered acquisition chain [{pid, acquired, hold}].
        self.handoffs: dict[int, list[dict]] = {}
        #: block -> total cycles processors spent waiting on it.
        self.block_waits: dict[int, int] = {}
        self.end_cycle: int | None = None
        self._open_txn: dict | None = None
        #: bus -> the span of its last granted transaction.
        self._last_txn: dict[int, dict] = {}
        self._episodes: dict[int, _Episode] = {}    # requester -> state
        self._last_collect: dict[int, int] = {}     # pid -> last collect cycle
        #: pid -> the episode its last DONE grant closed, and the cycle
        #: that grant's transfer ends.
        self._last_done: dict[int, tuple[_Episode, int]] = {}
        self._last_spin: dict[int, int] = {}        # pid -> last spin-step cycle
        self._last_episode: dict[int, int] = {}     # pid -> last closed span id
        self._pending_inval: dict[tuple, int] = {}  # (cache, block) -> txn id
        self._unlock_origin: dict[int, int] = {}    # block -> releasing cache

        reg = self.registry
        if tracing:
            from repro.obs.tracing import SPAN_KINDS

            spans = reg.histogram(
                "span_cycles", "span duration by kind (cycles)", ("kind",))
            self._span_cycles = {kind: spans.labels(kind=kind)
                                 for kind in SPAN_KINDS}
            buckets = reg.histogram(
                "bucket_wait_cycles",
                "per-episode latency by attribution bucket (cycles)",
                label_names=("bucket",))
            self._bucket_cycles = {b: buckets.labels(bucket=b) for b in (
                "lock_spin", "inval_refetch", "bus_arb_wait", "miss_wait")}
        self._bus_txns = _children(reg.counter(
            "bus_txns_total", "bus transactions granted", ("op", "bus")))
        self._bus_txn_cycles = _children(reg.histogram(
            "bus_txn_cycles", "bus occupancy per transaction (cycles)",
            label_names=("op",)))
        self._invalidations = _children(reg.counter(
            "invalidations_total", "invalidations received, by block",
            label_names=("block",)))
        self._c2c = _children(reg.counter(
            "c2c_transfers_total", "cache-to-cache supplies, by block",
            label_names=("block",)))
        self._source_losses = _children(reg.counter(
            "source_losses_total",
            "memory fetches despite cached copies (Feature 8 MEM), by block",
            label_names=("block",)))
        self._unlock_broadcasts = _children(reg.counter(
            "unlock_broadcasts_total", "unlock broadcasts, by block",
            label_names=("block", "spurious")))
        self._lock_acquisitions = _children(reg.counter(
            "lock_acquisitions_total", "lock acquisitions, by block",
            label_names=("block",)))
        self._lock_handoffs = _children(reg.counter(
            "lock_handoffs_total",
            "acquisitions by a different processor than the previous owner",
            label_names=("block",)))
        self._lock_hold = _children(reg.histogram(
            "lock_hold_cycles", "lock hold time (cycles)", ("block",)))
        self._lock_wait = _children(reg.histogram(
            "lock_wait_cycles", "lock wait/spin time (cycles)", ("block",)))
        self._cluster_hops = _children(reg.counter(
            "cluster_hops_total",
            "inter-cluster link crossings, by (src, dst) cluster",
            label_names=("src", "dst")))
        self._directory_msgs = _children(reg.counter(
            "directory_msgs_total",
            "directory point-to-point messages, by kind and home bank",
            label_names=("kind", "bank")))

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
        for block, _start, _span in self._waits.values():
            depth[block] = depth.get(block, 0) + 1
        return {
            "lock_waiters": len(self._waits),
            "lock_queue_depth": dict(sorted(depth.items())),
        }

    # -- engine phase callback ---------------------------------------------

    def on_advance(self, cycles: int) -> None:
        self.sampler.on_advance(cycles)
        self.next_advance = self.sampler.next_boundary

    def on_run_end(self, cycles: int) -> None:
        self.sampler.finalize(cycles)
        if not self.tracing:
            return
        # A DONE grant closes its episode at once, booking the whole
        # transfer occupancy; a run cut before the occupancy ends
        # stalled the processor only up to the cut.
        for pid in sorted(self._last_done):
            episode, end = self._last_done[pid]
            if end > cycles:
                self._take_back_transfer(pid, episode, end - cycles)
        # Likewise a grant books its whole occupancy as its ``txn``
        # span; a run cut before the occupancy ends clips it to the cut.
        txn_cycles = self._span_cycles["txn"]
        for bus in sorted(self._last_txn):
            span = self._last_txn[bus]
            end = span["start"] + span["dur"]
            if end > cycles:
                txn_cycles.unobserve(span["dur"])
                span["dur"] -= end - cycles
                txn_cycles.observe(span["dur"])
                span["args"]["truncated"] = True
        # Close anything still open, marked truncated.  An episode cut
        # during a REBUS phase's occupancy (``arb_since`` still ahead)
        # banked that whole phase as transfer: take back the part past
        # the cut.
        for pid in sorted(self._episodes):
            episode = self._episodes[pid]
            if cycles >= episode.arb_since:
                episode.arb += cycles - episode.arb_since
            else:
                episode.transfer -= episode.arb_since - cycles
            self._close_episode(pid, episode, cycles, truncated=True)
        for pid in sorted(self._waits):
            self._close_window(pid, self._waits.pop(pid), cycles,
                               "truncated")
        self._open_txn = None
        self.end_cycle = cycles

    # -- traced-tier plumbing ----------------------------------------------

    def _span(self, kind: str, name: str, track: str, start: int,
              dur: int = 0, parent: int | None = None,
              cause: int | None = None, **args) -> dict:
        span = {
            "id": len(self.spans), "kind": kind, "name": name,
            "track": track, "start": start, "dur": dur,
            "parent": parent, "cause": cause, "args": args,
        }
        self.spans.append(span)
        return span

    def _episode_span(self, pid: int, episode: _Episode) -> dict:
        """``episode``'s span, built on first need for a woken waiter.
        Until its first grant a woken episode's ``arb_since`` is still
        the wake cycle, which is where the span starts."""
        span = episode.span
        if span is None:
            wake = episode.wake
            block = wake["args"]["block"]
            span = episode.span = self._span(
                "episode", f"retry {block}", f"cpu{pid}", episode.arb_since,
                cause=wake["id"], block=block, op="RETRY")
        return span

    def _close_episode(self, pid: int, episode: _Episode, end: int,
                       aborted: bool = False, truncated: bool = False
                       ) -> None:
        span = self._episode_span(pid, episode)
        span["dur"] = dur = max(0, end - span["start"])
        args = span["args"]
        args["arb"], args["transfer"], args["phases"] = (
            episode.arb, episode.transfer, episode.phases)
        if aborted:
            args["aborted"] = True
            self.tallies[pid].aborted += 1
        if truncated:
            args["truncated"] = True
        if episode.in_window:
            args["in_window"] = True
        self._book(pid, episode)
        self._span_cycles["episode"].observe(dur)
        self._last_episode[pid] = span["id"]
        self._episodes.pop(pid, None)

    def _book(self, pid: int, episode: _Episode) -> None:
        """Book a closed episode's stall into its processor's tally and
        the ``bucket_wait_cycles`` histogram."""
        arb, transfer = episode.arb, episode.transfer
        tally = self.tallies[pid]
        tally.episodes += 1
        buckets = self._bucket_cycles
        if episode.in_window:
            tally.win_stall += arb + transfer
            if arb + transfer > 0:
                buckets["lock_spin"].observe(arb + transfer)
        elif episode.inval:
            tally.inval_wait += arb + transfer
            if arb + transfer > 0:
                buckets["inval_refetch"].observe(arb + transfer)
        else:
            tally.out_arb += arb
            tally.out_transfer += transfer
            if arb > 0:
                buckets["bus_arb_wait"].observe(arb)
            if transfer > 0:
                buckets["miss_wait"].observe(transfer)

    def _take_back_transfer(self, pid: int, episode: _Episode,
                            excess: int) -> None:
        """Un-book the last ``excess`` transfer cycles of a closed
        episode, which the run ended before (see :meth:`on_run_end`),
        from its span, its processor's tally, and the ``span_cycles``
        and ``bucket_wait_cycles`` observations :meth:`_close_episode`
        made of it: each moves to the clipped value (a bucket
        observation the clip brings to 0 is withdrawn, as the close
        skips zero ones)."""
        span = episode.span
        episode_cycles = self._span_cycles["episode"]
        episode_cycles.unobserve(span["dur"])
        span["dur"] -= excess
        episode_cycles.observe(span["dur"])
        tally = self.tallies[pid]
        buckets = self._bucket_cycles
        if episode.in_window:
            tally.win_stall -= excess
            bucket, booked = buckets["lock_spin"], episode.arb
        elif episode.inval:
            tally.inval_wait -= excess
            bucket, booked = buckets["inval_refetch"], episode.arb
        else:
            tally.out_transfer -= excess
            bucket, booked = buckets["miss_wait"], 0
        booked += episode.transfer
        bucket.unobserve(booked)
        if booked > excess:
            bucket.observe(booked - excess)
        episode.transfer -= excess
        args = span["args"]
        args["transfer"] = episode.transfer
        args["truncated"] = True

    def _close_wait(self, pid: int, wait: list, cycle: int,
                    outcome: str) -> int | None:
        """Close a lock wait that ended in ``outcome`` (``acquired`` or
        ``cancelled``); returns its wait span id when traced."""
        block, start = wait[0], wait[1]
        self._lock_wait(block).observe(cycle - start)
        self.slices.append({
            "track": f"cpu{pid}",
            "name": f"wait {block}" + (" (cancelled)"
                                       if outcome == "cancelled" else ""),
            "start": start, "dur": cycle - start,
            "args": {"block": block},
        })
        if wait[2] is None:
            return None
        return self._close_window(pid, wait, cycle, outcome)

    def _close_window(self, pid: int, wait: list, cycle: int,
                      outcome: str) -> int:
        """The traced half of closing a wait: its span and tallies."""
        block, _start, span = wait
        span["dur"] = cycle - span["start"]
        span["args"]["outcome"] = outcome
        self.tallies[pid].win_cycles += span["dur"]
        self.block_waits[block] = (self.block_waits.get(block, 0)
                                   + span["dur"])
        self._span_cycles["wait"].observe(span["dur"])
        return span["id"]

    # -- bus transactions --------------------------------------------------

    def record_txn_begin(self, cycle: int, op: str, block: int,
                         requester: int, bus: int = 0) -> None:
        if not self.tracing:
            return
        parent = None
        if op == "UNLOCK_BROADCAST":
            lock = self._locks.get(block)
            parent = lock[2] if lock is not None else None
        elif op not in DETACHED_OPS:
            episode = self._episodes.get(requester)
            if episode is not None:
                parent = self._episode_span(requester, episode)["id"]
        span = self._span("txn", op, f"bus{bus}", cycle, parent=parent,
                          block=block, requester=requester)
        if op == "UNLOCK_BROADCAST":
            origin = self._unlock_origin.pop(block, None)
            if origin is not None:
                span["args"]["origin"] = origin
        self._open_txn = span

    def record_bus_txn(self, cycle: int, duration: int, op: str,
                       block: int, requester: int, bus: int = 0,
                       *, outcome: str | None = None) -> None:
        self._bus_txns(op, bus).inc()
        self._bus_txn_cycles(op).observe(duration)
        self.slices.append({
            "track": f"bus{bus}", "name": op, "start": cycle,
            "dur": duration,
            "args": {"block": block, "requester": requester},
        })
        if not self.tracing:
            return
        span = self._open_txn
        self._open_txn = None
        if span is not None:
            span["dur"] = duration
            span["args"]["outcome"] = outcome
            self._span_cycles["txn"].observe(duration)
            self._last_txn[bus] = span
        if op in DETACHED_OPS:
            return
        episode = self._episodes.get(requester)
        if episode is None:
            return
        if outcome == "REBUS":
            # Multi-phase transaction: the transfer so far is banked and
            # arbitration resumes once this phase's occupancy expires --
            # resuming from the *release*, not the grant, or the phase's
            # transfer would be double-counted.
            episode.arb += cycle - episode.arb_since
            episode.transfer += duration
            episode.arb_since = cycle + duration
            episode.phases += 1
            return
        episode.arb += cycle - episode.arb_since
        if outcome == "WAIT_LOCK":
            # The lock was held: the requester parks (arbitration only;
            # the wait window opened at this same grant).
            self._close_episode(requester, episode, cycle)
        else:  # DONE: occupancy runs [cycle, cycle+duration), collect after
            episode.transfer += duration
            self._close_episode(requester, episode, cycle + duration)
            self._last_collect[requester] = cycle + duration
            self._last_done[requester] = (episode, cycle + duration)

    def record_invalidation(self, block: int, cache: int) -> None:
        self._invalidations(block).inc()
        # Remember which transaction killed the copy; the victim's next
        # request for this block is an invalidation-forced refetch.
        if self.tracing and self._open_txn is not None:
            self._pending_inval[(cache, block)] = self._open_txn["id"]

    def record_c2c(self, block: int, supplier: int) -> None:
        self._c2c(block).inc()

    def record_source_loss(self, block: int) -> None:
        self._source_losses(block).inc()

    def record_unlock_broadcast(self, block: int, spurious: bool) -> None:
        self._unlock_broadcasts(block, spurious).inc()

    def record_cluster_hop(self, cycle: int, block: int,
                           src_cluster: int, dst_cluster: int) -> None:
        self._cluster_hops(src_cluster, dst_cluster).inc()
        self.slices.append({
            "track": "link", "name": f"hop {src_cluster}->{dst_cluster}",
            "start": cycle, "dur": 1,
            "args": {"block": block, "src": src_cluster,
                     "dst": dst_cluster},
        })

    def record_directory_msgs(self, cycle: int, kind: str, block: int,
                              bank: int, count: int = 1) -> None:
        self._directory_msgs(kind, bank).inc(count)

    # -- processor requests (traced only) ----------------------------------

    def record_request_posted(self, cache: int, op_kind: str, block: int,
                              cycle: int) -> None:
        if not self.tracing:
            return
        stale = self._episodes.get(cache)
        if stale is not None:  # defensive: never two open episodes per pid
            stale.arb += max(0, cycle - stale.arb_since)
            self._close_episode(cache, stale, cycle, truncated=True)
        # An abort-retry posts on the aborted episode's collect cycle, and
        # a spin iteration posts on its deferred-result cycle: both are
        # compute cycles, so arbitration starts on the next one.
        posted_on_compute = (self._last_collect.get(cache) == cycle
                             or self._last_spin.get(cache) == cycle)
        arb_since = cycle + 1 if posted_on_compute else cycle
        cause = self._pending_inval.pop((cache, block), None)
        span = self._span("episode", f"{op_kind} {block}", f"cpu{cache}",
                          arb_since, cause=cause, block=block, op=op_kind)
        self._episodes[cache] = _Episode(span, arb_since, cache in self._waits,
                                         cause is not None)

    def record_request_aborted(self, cache: int, cycle: int) -> None:
        episode = self._episodes.get(cache)  # none open unless tracing
        if episode is None:
            return
        episode.arb += cycle - episode.arb_since
        span = self._episode_span(cache, episode)
        if span["cause"] is None and self._open_txn is not None:
            span["cause"] = self._open_txn["id"]
        self._close_episode(cache, episode, cycle, aborted=True)
        self._last_collect[cache] = cycle

    def record_local_hit(self, pid: int, cycle: int) -> None:
        # In-window hits are spin iterations; they land in the window's
        # ``win_compute`` remainder (-> lock_spin), not the hit bucket.
        if self.tracing and pid not in self._waits:
            self.tallies[pid].hits_out += 1

    def record_spin_step(self, pid: int, cycle: int) -> None:
        """A deferred spin result was processed this cycle (a compute
        cycle); any access it chains starts stalling next cycle."""
        if self.tracing:
            self._last_spin[pid] = cycle

    def record_crossbar(self, pid: int, start: int, until: int) -> None:
        if not self.tracing:
            return
        # The issue cycle always stalls, and collection happens on the
        # first tick at or after ``until`` -- so the stall contribution
        # is at least one cycle even for an instant round trip.
        stall = max(until - start, 1)
        self._span("crossbar", "crossbar rmw", f"cpu{pid}", start, dur=stall)
        tally = self.tallies[pid]
        in_window = pid in self._waits
        if in_window:
            tally.crossbar_in += stall
        else:
            tally.crossbar_out += stall
        self._span_cycles["crossbar"].observe(stall)
        self._bucket_cycles["lock_spin" if in_window
                            else "miss_wait"].observe(stall)

    # -- lock waits, wakes, holds ------------------------------------------

    def record_wait_start(self, pid: int, block: int, cycle: int) -> None:
        # Re-arms (lost post-unlock arbitration) keep the original start.
        if pid in self._waits:
            return
        span = None
        if self.tracing:
            span = self._span("wait", f"wait {block}", f"cpu{pid}", cycle,
                              block=block)
        self._waits[pid] = [block, cycle, span]

    def record_waiters_woken(self, woken: list[int], cycle: int) -> None:
        """The open unlock broadcast woke the waiters ``woken`` (in port
        order), which the txn span lists.  Each opens a spanless retry
        episode (see :class:`_Episode`)."""
        if not self.tracing:
            return
        txn = self._open_txn
        txn["args"]["woken"] = woken
        episodes, waits = self._episodes, self._waits
        for pid in woken:
            if pid not in episodes:
                episodes[pid] = _Episode(None, cycle, pid in waits,
                                         wake=txn)

    def record_wait_rearmed(self, cache: int, cycle: int) -> None:
        """A woken waiter lost the post-unlock race to the open txn, a
        READ_LOCK, and stands down.  Its stall is booked as an episode's
        and listed in the txn span's ``stood_down`` as ``[pid, cycles]``."""
        episode = self._episodes.get(cache)  # none open unless tracing
        if episode is None:
            return
        # Only a woken waiter stands down, before its own grant: nothing
        # has built its episode's span yet.
        assert episode.span is None, (cache, cycle)
        stall = cycle - episode.arb_since
        episode.arb += stall
        del self._episodes[cache]
        self._book(cache, episode)
        self._open_txn["args"].setdefault("stood_down", []).append(
            [cache, stall])

    def record_wait_cancelled(self, pid: int, cycle: int) -> None:
        wait = self._waits.pop(pid, None)
        if wait is not None:
            self._close_wait(pid, wait, cycle, "cancelled")

    def record_lock_acquired(self, pid: int, block: int, cycle: int) -> None:
        self._lock_acquisitions(block).inc()
        lock = self._locks.setdefault(block, [None, None, None])
        if lock[0] is not None and lock[0] != pid:
            self._lock_handoffs(block).inc()
        lock[0] = pid
        wait = self._waits.pop(pid, None)
        wait_id = None
        if wait is not None:
            wait_id = self._close_wait(pid, wait, cycle, "acquired")
        if self.tracing:
            chain = self.handoffs.setdefault(block, [])
            chain.append({"pid": pid, "acquired": cycle, "hold": None})
            lock[1] = (self._last_episode.get(pid), wait_id, len(chain) - 1)

    def record_lock_released(self, pid: int, block: int,
                             since: int, cycle: int) -> None:
        self._lock_hold(block).observe(cycle - since)
        self.slices.append({
            "track": f"cpu{pid}", "name": f"hold {block}",
            "start": since, "dur": cycle - since,
            "args": {"block": block},
        })
        if not self.tracing:
            return
        span = self._span("hold", f"hold {block}", f"cpu{pid}", since,
                          dur=cycle - since, block=block)
        lock = self._locks.setdefault(block, [None, None, None])
        if lock[0] == pid and lock[1] is not None:
            episode, wait_id, index = lock[1]
            lock[1] = None
            span["parent"] = episode
            if wait_id is not None:
                span["cause"] = wait_id
            self.handoffs[block][index]["hold"] = cycle - since
        lock[2] = span["id"]
        self._span_cycles["hold"].observe(span["dur"])

    def record_unlock_queued(self, cache: int, block: int,
                             cycle: int) -> None:
        if self.tracing:
            self._unlock_origin[block] = cache

    def record_lock_spill(self, cache: int, block: int, cycle: int) -> None:
        if self.tracing:
            self._span("mark", f"lock spill {block}", f"cpu{cache}", cycle,
                       block=block)

    # -- results -----------------------------------------------------------

    def result(self) -> ObsResult:
        """Reduce the run to plain data (safe to pickle across the
        process-pool sweep path)."""
        cycles = self._stats.cycles if self._stats is not None else 0
        attribution = None
        # Attribution needs the finalized tallies (open episodes are
        # closed by on_run_end); a mid-run reduction keeps the spans but
        # skips the exact accounting.
        if self._stats is not None and self.end_cycle is not None:
            from repro.obs.attribution import compute_attribution

            attribution = compute_attribution(self, self._stats).to_dict()
        return ObsResult(
            interval=self.sampler.interval,
            cycles=cycles,
            samples=list(self.sampler.samples),
            metrics=self.registry.snapshot(),
            slices=list(self.slices),
            spans=list(self.spans),
            attribution=attribution,
        )


def _as_result(obs: "Observability | ObsResult") -> ObsResult:
    """Accept either a live layer or an already-reduced result."""
    if isinstance(obs, ObsResult):
        return obs
    return obs.result()
