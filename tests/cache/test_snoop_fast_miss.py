"""``SnoopingCache.snoop`` fast-misses exactly when the cache cares.

The snoop's fast miss and ``cares_about`` are both one probe of the
cache's interest index, which is kept at its change points (tags
re-assigned, the busy-wait register armed or cleared).  Directory
pruning is sound only if that probe gives the definition of caring, so
this test writes the definition out from its two sources -- a frame
tagged with the block (valid or not), a busy-wait register armed or
fired on it -- and checks both against it, over every state of the
snooped block's frame and every busy-wait register, for every
transaction but the unlock broadcast (which always takes the full
path): the snoop returns the shared ``SNOOP_MISS`` reply, changing
nothing, if and only if the cache does not care about the block.
Either way the snoop leaves the cache's directory-duality model
untouched: the fabric that delivers a snoop charges it, not the cache.

Every state is entered through the cache's own paths, so a change
point that forgot its pin leaves the index stale and fails here: the
register is armed by a refused lock request and fired by the holder's
unlock broadcast.  The one exception is an idle register still naming
a block, set by assignment: an idle register pins nothing, so the index
is right without a change point.
"""

import itertools

import pytest

from repro.bus.signals import SNOOP_MISS
from repro.bus.transaction import BusOp, BusTransaction
from repro.cache.busy_wait import WaitPhase
from repro.cache.state import CacheState
from repro.common.config import CacheConfig
from repro.common.errors import ProtocolError
from repro.processor import isa
from repro.sim.harness import ManualSystem

WPB = 4
#: The snooped block, another block the cache always holds, and a block
#: it never tags.
SNOOPED, HELD_ELSEWHERE, UNTOUCHED = 0, WPB, 2 * WPB
OPS = [op for op in BusOp if op is not BusOp.UNLOCK_BROADCAST]
#: The snooped block's frame: untagged, or tagged in any state (an
#: INVALID frame stays tagged).
FRAMES = [None, *sorted(CacheState, key=lambda state: state.name)]
#: The register: idle (naming no block, or a stale one), or armed or
#: fired on a block.  An armed or fired register always names one.
WAITS = [(WaitPhase.IDLE, block) for block in (None, SNOOPED, UNTOUCHED)] + [
    (phase, block) for phase in (WaitPhase.ARMED, WaitPhase.FIRED)
    for block in (SNOOPED, UNTOUCHED)]


def _wait_on(system: ManualSystem, phase: WaitPhase, block: int) -> None:
    """Bring cache 0's register to ``phase`` on ``block``: cache 1
    locks the block, cache 0's lock request is refused (ARMED), and
    cache 1's unlock broadcast fires the register (FIRED)."""
    register = system.caches[0].busy_wait
    system.run_op(1, isa.lock(block))
    system.submit(0, isa.lock(block))
    system.drain()
    assert register.phase is WaitPhase.ARMED and register.block == block
    if phase is WaitPhase.FIRED:
        system.submit(1, isa.unlock(block))
        while register.phase is not WaitPhase.FIRED:
            system.step()


def _cache(frame, wait):
    system = ManualSystem(n_caches=2, cache_config=CacheConfig(
        words_per_block=WPB, num_blocks=4, assoc=2))
    cache = system.caches[0]
    phase, block = wait
    if phase is WaitPhase.IDLE:
        cache.busy_wait.block = block  # idle: pins nothing
    else:
        _wait_on(system, phase, block)
    cache.install_block(HELD_ELSEWHERE, CacheState.READ, [0] * WPB)
    if frame is not None:
        cache.install_block(SNOOPED, frame, [0] * WPB)
    return cache


def _cares(cache, block) -> bool:
    """The definition the interest index stands for, from its sources."""
    tagged = any(line.block == block for line in cache.array.set_of(block))
    register = cache.busy_wait
    armed = register.phase is not WaitPhase.IDLE and register.block == block
    return tagged or armed


def _model(cache) -> tuple:
    directory = cache.directory
    return dict(vars(directory)), directory.snoops


def _snapshot(cache) -> tuple:
    lines = tuple((line.block, line.state, tuple(line.words),
                   line.last_used) for line in cache.array.lines())
    interest = {block: list(entries)
                for block, entries in cache.array._interest.items()}
    return (lines, interest, cache.busy_wait.phase, cache.busy_wait.block, cache._pending,
            tuple(cache._detached), cache.directory.status_writes,
            cache.stats.to_payload())


@pytest.mark.parametrize("op", OPS, ids=lambda op: op.name)
def test_fast_miss_iff_not_cares_about(op):
    misses = pinned_only = 0
    for frame, wait in itertools.product(FRAMES, WAITS):
        cache = _cache(frame, wait)
        cares = _cares(cache, SNOOPED)
        case = (frame, wait)
        assert cache.cares_about(SNOOPED) is cares, case
        if cares and frame is None:
            pinned_only += 1
        before = _snapshot(cache)
        model = _model(cache)
        txn = BusTransaction(op=op, block=SNOOPED, requester=1,
                             word=SNOOPED, stamp=1)
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
    # The grid reaches caring through a pin alone (the register).
    assert misses > 0 and pinned_only > 0
