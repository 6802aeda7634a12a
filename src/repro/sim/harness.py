"""Manual-drive harness: a simulated system without processors.

Tests and the Figure-10 transition enumerator drive the caches with
individual operations and pump the bus by hand, which makes single
protocol transitions observable without writing full programs.
"""

from __future__ import annotations

from repro.bus.bus import Bus
from repro.cache.cache import AccessStatus, SnoopingCache
from repro.common.config import CacheConfig, SystemConfig, TimingConfig
from repro.common.errors import DeadlockError
from repro.memory.main_memory import MainMemory
from repro.processor.isa import Op, OpKind
from repro.protocols import get_protocol
from repro.sim.clock import Clock, StampClock
from repro.sim.stats import SimStats
from repro.verify.oracle import WriteOracle


class ManualSystem:
    """N caches on a bus, driven op-by-op (no processor models)."""

    def __init__(
        self,
        protocol: str = "bitar-despain",
        n_caches: int = 2,
        *,
        cache_config: CacheConfig | None = None,
        timing: TimingConfig | None = None,
        with_oracle: bool = True,
        strict: bool = True,
    ) -> None:
        self.clock = Clock()
        self.stamp_clock = StampClock()
        self.stats = SimStats()
        cache_config = cache_config or CacheConfig()
        timing = timing or TimingConfig()
        self.memory = MainMemory(cache_config.words_per_block)
        self.bus = Bus(self.memory, timing, self.clock, self.stats)
        self.oracle = WriteOracle(self.stats, strict=strict) if with_oracle else None
        protocol_cls = get_protocol(protocol)
        self.caches: list[SnoopingCache] = []
        for i in range(n_caches):
            cache = SnoopingCache(
                cache_id=i,
                config=cache_config,
                clock=self.clock,
                stamp_clock=self.stamp_clock,
                stats=self.stats,
            )
            cache.protocol = protocol_cls(cache)
            cache.memory = self.memory
            cache.oracle = self.oracle
            self.caches.append(cache)
            self.bus.attach(cache)

    # -- driving -----------------------------------------------------------

    def step(self) -> None:
        self.bus.step()
        self.stats.cycles += 1
        self.clock.tick()

    def submit(self, cache_idx: int, op: Op) -> AccessStatus:
        """Issue one operation on a cache (stamping writes)."""
        if op.kind in (OpKind.WRITE, OpKind.UNLOCK, OpKind.RELEASE,
                       OpKind.SAVE_BLOCK) and op.stamp is None:
            op.stamp = self.stamp_clock.next_stamp(op.value)
        return self.caches[cache_idx].access(op)

    def run_op(self, cache_idx: int, op: Op, *, max_cycles: int = 2000) -> Op:
        """Issue an op and pump the bus until it completes.

        Raises :class:`DeadlockError` if it does not complete (e.g. the op
        is blocked on a lock nobody releases) -- callers testing lock waits
        use :meth:`submit` + :meth:`drain` instead.
        """
        status = self.submit(cache_idx, op)
        if status is AccessStatus.DONE:
            return op
        for _ in range(max_cycles):
            self.step()
            done = self.caches[cache_idx].take_completion()
            if done is not None:
                return done
        raise DeadlockError(f"op {op.kind} did not complete in {max_cycles} cycles")

    def drain(self, *, max_cycles: int = 2000) -> None:
        """Pump the bus until it is idle and no cache holds a grantable
        request (lock-waiting pendings may remain)."""
        for _ in range(max_cycles):
            active = (
                self.bus.busy
                or self.bus.pending_release
                or any(c.has_bus_request() for c in self.caches)
            )
            if not active:
                return
            self.step()
        raise DeadlockError(f"bus did not drain in {max_cycles} cycles")

    def line_state(self, cache_idx: int, block: int):
        line = self.caches[cache_idx].line_for(block)
        from repro.cache.state import CacheState

        return CacheState.INVALID if line is None else line.state
