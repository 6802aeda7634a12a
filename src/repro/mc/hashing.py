"""Canonical state fingerprints for the schedule-space explorer.

Two runs that reach the same *behavioral* state will behave identically
under identical future schedules, so the explorer prunes any branch that
revisits a fingerprint it has already expanded.  The fingerprint must
therefore cover everything that can influence future transitions:

* every cache's valid lines (tag, state, word stamps, sub-block dirty
  bits) plus the LRU ordering within each set (it picks future victims);
* the busy-wait register, in-flight pending access and detached request
  queue of each cache;
* main memory's block contents, lock tags, and source bits;
* each processor's program counter, state machine, spin expansion, and
  held locks;
* the bus occupancy (relative to the current cycle), its active port,
  and the arbiter's round-robin pointer;
* the stamp clock and the oracle's latest-write map.

Purely statistical quantities (counters, latency accumulators) are
deliberately excluded: they never feed back into behaviour.  Absolute
cycle numbers are excluded for the same reason -- only *relative* times
(remaining bus occupancy, LRU rank order) matter, which is what lets
runs of different lengths share fingerprints.
"""

from __future__ import annotations

import enum
from typing import Any

from repro.protocols.base import NeedBus


def _freeze(value: Any) -> Any:
    """Recursively convert a value into a hashable canonical form."""
    if isinstance(value, dict):
        return tuple(sorted((k, _freeze(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    if isinstance(value, set):
        return tuple(sorted(_freeze(v) for v in value))
    if isinstance(value, enum.Enum):
        return value.value
    return value


def _need_sig(need: NeedBus | None):
    if need is None:
        return None
    return (
        need.op.name,
        need.word,
        need.stamp,
        need.lock_intent,
        need.high_priority,
        need.update_invalid,
        need.extra_hold,
    )


def _op_sig(op) -> tuple:
    return (
        op.kind.value,
        op.addr,
        op.cycles,
        op.value,
        op.private_hint,
        op.ready_work,
        op.stamp,
        op.result,
        op.aborted,
    )


def _pending_sig(pending) -> tuple | None:
    if pending is None:
        return None
    return (
        _op_sig(pending.op),
        _need_sig(pending.request),
        pending.phase,
        pending.lock_wait,
        pending.write_applied,
        _need_sig(pending.refused_request),
        pending.ready,
        pending.completed,
    )


def _cache_sig(cache) -> tuple:
    return (
        cache.id,
        cache.array.signature(),
        (cache.busy_wait.phase.value, cache.busy_wait.block),
        _pending_sig(cache._pending),
        tuple((_need_sig(need), block) for need, block in cache._detached),
        _freeze(cache.scratch),
    )


def _processor_sig(processor, now: int) -> tuple:
    # The engine keeps idle processors' counters lazily; settle them so
    # the compute and ready-work countdowns read as the cycle stands.
    processor.settle(now)
    return (
        processor.pid,
        processor._pc,
        processor._state.value,
        processor._compute_left,
        processor._spin.value,
        processor._ready_work_left,
        _op_sig(processor._pending_spin_result)
        if processor._pending_spin_result is not None else None,
        tuple(sorted(processor._lock_held_since)),
    )


def _bus_sig(bus, now: int) -> tuple:
    sig = []
    for one in bus.buses:
        arbiter = one._arbiter
        sig.append((
            max(0, one._busy_until - now),
            one._active_port.id if one._active_port is not None else None,
            arbiter._last_winner_index if arbiter is not None else None,
        ))
    return tuple(sig)


def _memory_sig(memory) -> tuple:
    return (
        tuple(sorted((block, tuple(words))
                     for block, words in memory._blocks.items())),
        tuple(sorted((block, tag.owner, tag.waiter)
                     for block, tag in memory._lock_tags.items())),
        tuple(sorted(memory._source_bits.items())),
    )


def state_signature(sim) -> tuple:
    """The full canonical behavioral state of a simulator, as a tuple."""
    now = sim.clock.cycle
    return (
        tuple(_cache_sig(cache) for cache in sim.caches),
        tuple(_processor_sig(p, now) for p in sim.processors),
        _bus_sig(sim.bus, now),
        _memory_sig(sim.memory),
        sim.stamp_clock._next,
        tuple(sorted(sim.stamp_clock._values.items())),
        tuple(sorted(sim.oracle._latest.items())),
    )


def fingerprint(sim) -> int:
    """Hash of :func:`state_signature` (collision risk is negligible for
    the search sizes the explorer bounds itself to, and a false collision
    can only prune, never fabricate a failure)."""
    return hash(state_signature(sim))
