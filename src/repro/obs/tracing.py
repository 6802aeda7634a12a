"""The causal span model: every bus transaction, stall episode, lock
wait, lock hold, and crossbar round trip becomes a *span* with
parent/cause links, so an invalidation that forces another processor's
miss -- or a lock handoff chain -- is traceable end to end.

Spans are recorded by :class:`~repro.obs.core.Observability`
constructed with ``tracing=True`` (its traced tier), fed exclusively
through the ``record_*`` publication hooks on event cycles, so the
collected spans are bit-identical between the stepped and fast-forward
engines.

Span model (plain dicts, JSON-able):

``id``
    Creation index; links always point at smaller ids.
``kind``
    One of :data:`SPAN_KINDS` -- ``txn`` (one bus transaction,
    grant to release), ``episode`` (one contiguous stall stretch of a
    processor: post/wake -> arbitration -> transfer -> collect; a
    waiter that loses the post-unlock race gets none, see ``args``),
    ``wait`` (a lock wait window, spin or sleep), ``hold`` (a lock
    hold), ``crossbar`` (a memory-unit RMW round trip), and ``mark``
    (instant annotations such as a locked-victim spill).
``track``
    ``bus{i}`` or ``cpu{pid}`` -- the same track names the timeline
    slices use, so the Perfetto export lines spans up with them.
``start`` / ``dur``
    Cycles.  An episode's duration is exactly its contribution to the
    processor's stall cycles (arbitration + transfer).
``parent``
    Containment/causality upward: a txn's parent is the episode that
    posted it; an unlock broadcast's parent is the releaser's hold; a
    hold's parent is the episode that completed the acquisition.
``cause``
    Cross-processor causality: the txn whose snoop invalidated the
    block (for the forced refetch) or the unlock broadcast that woke
    the waiter (for the post-wake retry of the race's winner, or of a
    woken waiter whose span an abort or the run's end needed).
``args``
    Per-kind details.  The post-unlock race (Section E.4, Figure 9) is
    recorded once, on two txn spans: an ``UNLOCK_BROADCAST``'s
    ``woken`` lists the waiters it woke, in port order, and the winning
    ``READ_LOCK``'s ``stood_down`` lists ``[pid, cycles]`` for each
    waiter that stood down, with its stall from the wakeup.  So a trace
    costs O(1) spans per lock passage, and a processor's stall cycles
    are its episode durations plus its ``stood_down`` cycles plus its
    crossbar stalls.

The traced tier also keeps the per-processor tallies
:mod:`repro.obs.attribution` turns into the exhaustive cycle buckets;
see there for the accounting contract.
"""

#: Every span ``kind`` the traced tier emits.
SPAN_KINDS = ("txn", "episode", "wait", "hold", "crossbar", "mark")
