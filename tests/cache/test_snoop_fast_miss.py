"""``SnoopingCache.snoop`` fast-misses exactly when ``cares_about`` is false.

The snoop writes its fast-miss test out inline (it runs on N-1 caches
per bus transaction), while the directory fabric prunes its probes with
``cares_about``.  Directory pruning is sound only if the two are one
decision, so over every state of the snooped block's frame, every RMW
hold and every busy-wait register, and for every transaction but the
unlock broadcast (which always takes the full path): the snoop returns
the shared ``SNOOP_MISS`` reply, changing nothing, if and only if the
cache does not care about the block.  Either way the snoop leaves the cache's directory-duality model
untouched: the fabric that delivers a snoop charges it, not the cache.
"""

import itertools

import pytest

from repro.bus.signals import SNOOP_MISS
from repro.bus.transaction import BusOp, BusTransaction
from repro.cache.busy_wait import WaitPhase
from repro.cache.state import CacheState
from repro.common.config import CacheConfig
from repro.common.errors import ProtocolError
from repro.sim.harness import ManualSystem

WPB = 4
#: The snooped block, another block the cache always holds, and a block
#: it never touches.
SNOOPED, HELD_ELSEWHERE, UNTOUCHED = 0, WPB, 2 * WPB
OPS = [op for op in BusOp if op is not BusOp.UNLOCK_BROADCAST]
#: The snooped block's frame: untagged, or tagged in any state (an
#: INVALID frame stays tagged).
FRAMES = [None, *sorted(CacheState, key=lambda state: state.name)]
HOLDS = [None, SNOOPED, UNTOUCHED]
WAITS = [(phase, block) for phase in WaitPhase
         for block in (None, SNOOPED, UNTOUCHED)]


def _cache(frame, held, wait):
    system = ManualSystem(n_caches=2, cache_config=CacheConfig(
        words_per_block=WPB, num_blocks=4, assoc=2))
    cache = system.caches[0]
    cache.install_block(HELD_ELSEWHERE, CacheState.READ, [0] * WPB)
    if frame is not None:
        cache.install_block(SNOOPED, frame, [0] * WPB)
    cache._held_block = held
    cache.busy_wait.phase, cache.busy_wait.block = wait
    return cache


def _model(cache) -> tuple:
    directory = cache.directory
    return dict(vars(directory)), directory.snoops


def _snapshot(cache) -> tuple:
    lines = tuple((line.block, line.state, tuple(line.words),
                   line.last_used) for line in cache.array.lines())
    return (lines, sorted(cache._tagged), cache._held_block,
            cache.busy_wait.phase, cache.busy_wait.block, cache._pending,
            tuple(cache._detached), cache.directory.status_writes,
            cache.stats.to_payload())


@pytest.mark.parametrize("op", OPS, ids=lambda op: op.name)
def test_fast_miss_iff_not_cares_about(op):
    misses = 0
    for frame, held, wait in itertools.product(FRAMES, HOLDS, WAITS):
        cache = _cache(frame, held, wait)
        cares = cache.cares_about(SNOOPED)
        before = _snapshot(cache)
        model = _model(cache)
        txn = BusTransaction(op=op, block=SNOOPED, requester=1,
                             word=SNOOPED, stamp=1)
        case = (frame, held, wait)
        try:
            reply = cache.snoop(txn)
        except ProtocolError:
            # A protocol may reject an op it never sees on its bus; only
            # the full path consults the protocol.
            assert cares, case
            continue
        assert _model(cache) == model, case
        assert (reply is SNOOP_MISS) is (not cares), case
        if not cares:
            misses += 1
            assert _snapshot(cache) == before, case
    assert misses > 0
