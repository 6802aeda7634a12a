"""Coherence invariants checked over live simulator state.

The checker walks every cache's tag array (plus memory and the busy-wait
registers) and asserts the structural properties the paper's Section C
reduces cache synchronization to:

* **single writer** -- at most one cache holds write/lock privilege for a
  block, and then no other cache holds a valid copy;
* **single source** -- at most one cache is the source for a block (waived
  for Illinois' multiple-read-sources policy, Feature 8 ``ARB``);
* **latest version reachable** -- the latest serialized stamp of every
  word exists in some valid cache copy or in memory;
* **waiter liveness** -- an armed busy-wait register is always matched by
  a lock-waiter record somewhere (cache state, memory lock tag, or an
  unlock broadcast already in flight), so a waiter cannot be stranded.

It also checks the engine's own bookkeeping:

* **interest index** -- each cache's interest index (what the snoop
  fast miss and ``cares_about`` probe) lists, per block, exactly the
  frames tagged with it, plus a pin for an armed busy-wait register
  watching it;
* **requester index** (given the fabric) -- each bus's index of
  requesting ports (what arbitration and the fast-forward engine read
  instead of polling every port) is exactly the set of its ports with
  a posted request whose block routes to that bus.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from repro.bus.transaction import BusOp
from repro.cache.organization import PIN
from repro.cache.state import EXCLUSIVE_STATES, CacheState
from repro.common.errors import CoherenceViolation
from repro.common.types import BlockAddr
from repro.protocols.features import ReadSourcePolicy

if TYPE_CHECKING:
    from repro.cache.cache import SnoopingCache
    from repro.memory.main_memory import MainMemory
    from repro.verify.oracle import WriteOracle


class InvariantChecker:
    """Structural coherence checks over the whole system."""

    def __init__(
        self,
        caches: "Iterable[SnoopingCache]",
        memory: "MainMemory",
        oracle: "WriteOracle | None" = None,
        *,
        check_single_source: bool = True,
        check_single_writer: bool = True,
        check_latest: bool = True,
        fabric=None,
    ) -> None:
        self.caches = list(caches)
        self.fabric = fabric
        self.memory = memory
        self.oracle = oracle
        self.check_single_source = check_single_source
        self.check_single_writer = check_single_writer
        self.check_latest = check_latest

    @classmethod
    def for_system(cls, caches, memory, oracle=None, *,
                   serialized: bool = True,
                   fabric=None) -> "InvariantChecker":
        """Configure the checks from the caches' protocol features.

        ``serialized=False`` (classic write-through runs) disables the
        latest-version-reachable check, whose premise -- serialized writes
        -- is exactly what that scheme lacks; lost updates are counted by
        the oracle instead.
        """
        caches = list(caches)
        features = caches[0].protocol.features() if caches else None
        single_source = (
            features is not None
            and features.read_source_policy is not ReadSourcePolicy.ARBITRATE
        )
        return cls(
            caches,
            memory,
            oracle,
            check_single_source=single_source,
            check_latest=serialized,
            fabric=fabric,
        )

    # -- entry point ---------------------------------------------------------

    def check_all(self) -> None:
        by_block = self._lines_by_block()
        self._check_state_membership()
        for block, holders in by_block.items():
            if self.check_single_writer:
                self._check_single_writer(block, holders)
            if self.check_single_source:
                self._check_single_source(block, holders)
        if self.oracle is not None and self.check_latest:
            self._check_latest_reachable(by_block)
        self._check_waiter_liveness()
        self._check_interest_index()
        if self.fabric is not None:
            self.fabric.check_requester_index()

    def _lines_by_block(self) -> dict[BlockAddr, list[tuple[int, CacheState, list]]]:
        by_block: dict[BlockAddr, list[tuple[int, CacheState, list]]] = {}
        for cache in self.caches:
            for line in cache.array.lines():
                by_block.setdefault(line.block, []).append(
                    (cache.id, line.state, line.words)
                )
        return by_block

    # -- individual invariants --------------------------------------------------

    def _check_state_membership(self) -> None:
        """Every valid line must hold a state its protocol declares in its
        Table-1 column -- Figure 10's 'arcs not shown would be bugs'
        applied to states."""
        for cache in self.caches:
            allowed = cache.protocol.states()
            for line in cache.array.lines():
                if line.state not in allowed:
                    raise CoherenceViolation(
                        f"cache {cache.id} block {line.block}: state "
                        f"{line.state} is not in "
                        f"{cache.protocol.name!r}'s state set"
                    )

    def _check_single_writer(self, block, holders) -> None:
        writers = [cid for cid, state, _ in holders if state in EXCLUSIVE_STATES]
        if len(writers) > 1:
            raise CoherenceViolation(
                f"block {block}: multiple writers {writers}"
            )
        if writers and len(holders) > 1:
            states = {cid: state.value for cid, state, _ in holders}
            raise CoherenceViolation(
                f"block {block}: cache {writers[0]} holds exclusive privilege "
                f"but other copies exist: {states}"
            )

    def _check_single_source(self, block, holders) -> None:
        sources = [
            cid
            for cid, state, _ in holders
            if self._cache(cid).protocol.is_source_state(state)
        ]
        if len(sources) > 1:
            raise CoherenceViolation(f"block {block}: multiple sources {sources}")

    def _check_latest_reachable(self, by_block) -> None:
        assert self.oracle is not None
        wpb = self.memory.words_per_block
        for addr in self.oracle.recorded_words():
            latest = self.oracle.latest(addr)
            if latest == 0:
                continue
            block = (addr // wpb) * wpb
            offset = addr - block
            if self.memory.peek_block(block)[offset] == latest:
                continue
            holders = by_block.get(block, [])
            if any(words[offset] == latest for _, _, words in holders):
                continue
            raise CoherenceViolation(
                f"word {addr}: latest stamp {latest} is in no cache "
                f"and not in memory"
            )

    def _check_waiter_liveness(self) -> None:
        for cache in self.caches:
            register = cache.busy_wait
            if not register.active or register.block is None:
                continue
            block = register.block
            if self._waiter_recorded(block):
                continue
            raise CoherenceViolation(
                f"cache {cache.id} busy-waits on block {block} but no "
                f"lock-waiter record exists anywhere"
            )

    def _check_interest_index(self) -> None:
        """A missed pin or unpin would make the snoop fast-miss a block
        the cache must react to (or probe one it need not): re-derive the
        index from its two sources -- the frames of every set and the
        armed busy-wait register -- and compare entry for entry."""
        for cache in self.caches:
            expected: dict[BlockAddr, list] = {}
            for frames in cache.array._sets.values():
                for line in frames:
                    expected.setdefault(line.block, []).append(line)
            if cache.busy_wait.active:
                expected.setdefault(cache.busy_wait.block, []).append(PIN)
            indexed = cache.array._interest
            if _entries(indexed) != _entries(expected):
                raise CoherenceViolation(
                    f"cache {cache.id}: interest index "
                    f"{_entries(indexed, count=True)} but tags and "
                    f"busy-wait register give "
                    f"{_entries(expected, count=True)} (entries per block)"
                )

    def _waiter_recorded(self, block) -> bool:
        for other in self.caches:
            line = other.array.lookup(block)
            if line is not None and line.state is CacheState.LOCK_WAITER:
                return True
            for need, need_block in other._detached:
                if need.op is BusOp.UNLOCK_BROADCAST and need_block == block:
                    return True
            # A fired register means the unlock broadcast already happened.
            if other.busy_wait.block == block and other.busy_wait.active:
                from repro.cache.busy_wait import WaitPhase

                if other.busy_wait.phase is WaitPhase.FIRED:
                    return True
        tag = self.memory.lock_tag(block)
        if tag is not None and tag.waiter:
            return True
        return False

    def _cache(self, cache_id: int) -> "SnoopingCache":
        for cache in self.caches:
            if cache.id == cache_id:
                return cache
        raise KeyError(cache_id)



def _entries(index: dict, *, count: bool = False) -> dict:
    """An interest index as ``{block: entry ids}``, comparable whatever
    the entries' order -- or, with ``count``, ``{block: entries}``."""
    return {block: len(entries) if count else sorted(map(id, entries))
            for block, entries in sorted(index.items())}
