"""The fast-forward core's work per executed event is O(active), not O(N).

Deterministic call counts, not timings: quadrupling the machine must not
multiply the per-event number of lazy settles (``advance_quiet``, once
per processor touched after a quiet span) or of request revalidations
(only queued operations revalidation can change, on the proposal just
upgrades).  Both would grow linearly with the processor count if the
engine swept every processor per event or revalidated every queued
request.  Likewise an arbitration asks ``has_bus_request`` only of the
queued requests revalidation can change, not of every queued requester:
on a saturated bus most caches are queued at every grant.  The stepped
engine, the reference the fast-forward loop is checked against, ticks
every processor on every cycle instead and never settles lazily.

The snoop broadcast itself is deliberately *not* filtered: the modelled
bus delivers every transaction to all N-1 other caches, and the message
count the benchmark reports is that number of ``port.snoop`` calls.
"""

from collections import Counter

import pytest

from repro import CacheConfig, SystemConfig
from repro.bus.bus import Bus
from repro.cache.cache import SnoopingCache
from repro.processor.processor import Processor
from repro.sim.engine import Simulator
from repro.workloads import scale_probe

COUNTED = [(Processor, "advance_quiet"),
           (SnoopingCache, "_revalidate_pending"),
           (SnoopingCache, "has_bus_request"),
           (Bus, "step"),
           (Simulator, "_finish_cycle")]


def _config(processors: int) -> SystemConfig:
    return SystemConfig(num_processors=processors, protocol="bitar-despain",
                        cache=CacheConfig(words_per_block=4, num_blocks=64))


def _counts(processors: int, monkeypatch, fast_forward: bool = True) -> Counter:
    calls: Counter = Counter()
    with monkeypatch.context() as patch:
        for owner, name in COUNTED:
            original = getattr(owner, name)

            def counted(*args, _original=original, _name=name, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            patch.setattr(owner, name, counted)
        config = _config(processors)
        programs = scale_probe(config, total_references=1024)
        Simulator(config, programs, fast_forward=fast_forward).run()
    return calls


def _per_event(processors: int, monkeypatch) -> dict[str, float]:
    calls = _counts(processors, monkeypatch)
    events = calls.pop("_finish_cycle")
    return {name: calls[name] / events for _, name in COUNTED[:2]}


@pytest.mark.parametrize("name", ["advance_quiet", "_revalidate_pending"])
def test_calls_per_event_do_not_grow_with_processors(name, monkeypatch):
    small = _per_event(32, monkeypatch)[name]
    large = _per_event(128, monkeypatch)[name]
    # Linear growth would quadruple the rate; allow jitter in which
    # processors happen to be touched, not a trend.
    assert large <= 2 * small + 0.05, (small, large)
    assert large <= 4, large


def test_stepped_engine_never_settles_lazily(monkeypatch):
    calls = _counts(32, monkeypatch, fast_forward=False)
    assert calls["_finish_cycle"] > 0
    assert calls["advance_quiet"] == 0


def test_arbitration_polls_per_step_do_not_grow_with_processors(monkeypatch):
    def polls_per_step(processors: int) -> float:
        calls = _counts(processors, monkeypatch)
        return calls["has_bus_request"] / calls["step"]

    small = polls_per_step(32)
    large = polls_per_step(128)
    # Polling every queued requester would roughly quadruple the rate.
    assert large <= 2 * small + 0.05, (small, large)
    assert large <= 2, large


def test_snoop_bus_delivers_every_transaction_to_every_other_cache():
    processors = 64
    config = _config(processors)
    sim = Simulator(config, scale_probe(config, total_references=512),
                    fast_forward=True)
    delivered = [0]
    for cache in sim.caches:
        # Wrapped after set-up, as a benchmark counting deliveries does:
        # the fan-out must look ``snoop`` up on every delivery.
        def counted(txn, _snoop=cache.snoop):
            delivered[0] += 1
            return _snoop(txn)

        cache.snoop = counted
    stats = sim.run()
    transactions = sum(stats.txn_counts.values())
    assert transactions > 0
    assert delivered[0] == (processors - 1) * transactions
