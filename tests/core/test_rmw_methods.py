"""The four atomic read-modify-write methods (Feature 6)."""

import pytest

from repro.common.config import CacheConfig, RmwMethod, SystemConfig
from repro.common.errors import ConfigError, SerializationViolation
from repro.processor import isa
from repro.processor.isa import fetch_and_add
from repro.processor.isa import test_and_set as tas  # avoid pytest collection
from repro.processor.program import LockStyle, Program
from repro.protocols import PROTOCOLS
from repro.sim.engine import Simulator, run_workload
from repro.sim.harness import ManualSystem
from repro.workloads import lock_contention

B = 0


def harness(method: RmwMethod, protocol="illinois", n=2) -> ManualSystem:
    sys = ManualSystem(protocol=protocol, n_caches=n)
    for cache in sys.caches:
        cache.rmw_method = method
    return sys


class TestSemantics:
    """Every method must produce a correct atomic RMW."""

    @pytest.mark.parametrize("method", [
        RmwMethod.MEMORY_HOLD, RmwMethod.CACHE_HOLD, RmwMethod.BUS_HOLD,
        RmwMethod.OPTIMISTIC, RmwMethod.LOCK_STATE,
    ])
    def test_tas_mutual_exclusion(self, method):
        protocol = "bitar-despain" if method is RmwMethod.LOCK_STATE else "illinois"
        sys = harness(method, protocol=protocol)
        first = sys.run_op(0, isa.rmw(B, tas(1)))
        second = sys.run_op(1, isa.rmw(B, tas(2)))
        assert first.result == 1
        assert second.result == 0  # the lock was held
        assert sys.stats.failed_lock_attempts == 1

    @pytest.mark.parametrize("method", [
        RmwMethod.MEMORY_HOLD, RmwMethod.CACHE_HOLD, RmwMethod.LOCK_STATE,
    ])
    def test_fetch_and_add_accumulates(self, method):
        protocol = "bitar-despain" if method is RmwMethod.LOCK_STATE else "illinois"
        sys = harness(method, protocol=protocol)
        for i in range(6):
            op = sys.run_op(i % 2, isa.rmw(B, fetch_and_add(1)))
            assert op.result == 1
        line_or_mem = sys.oracle.latest(B)
        assert sys.stamp_clock.value_of(line_or_mem) == 6


class TestMemoryHold:
    def test_does_not_cache_the_word(self):
        sys = harness(RmwMethod.MEMORY_HOLD)
        sys.run_op(0, isa.rmw(B, tas(1)))
        assert sys.caches[0].line_for(B) is None

    def test_invalidates_cached_copies(self):
        sys = harness(RmwMethod.MEMORY_HOLD)
        sys.run_op(1, isa.read(B))
        sys.run_op(0, isa.rmw(B, tas(1)))
        from repro.cache.state import CacheState

        assert sys.line_state(1, B) is CacheState.INVALID

    def test_every_rmw_hits_the_bus(self):
        sys = harness(RmwMethod.MEMORY_HOLD)
        for _ in range(4):
            sys.run_op(0, isa.rmw(B, fetch_and_add(1)))
        assert sys.stats.txn_counts["MEMORY_RMW"] == 4

    def test_memory_holds_latest_value(self):
        sys = harness(RmwMethod.MEMORY_HOLD)
        sys.run_op(0, isa.rmw(B, fetch_and_add(5)))
        stamp = sys.memory.read_word(B, 0)
        assert sys.stamp_clock.value_of(stamp) == 5


class TestCacheHold:
    def test_cached_rmw_is_free(self):
        """With write privilege in hand the RMW costs no bus traffic."""
        sys = harness(RmwMethod.CACHE_HOLD)
        sys.run_op(0, isa.rmw(B, fetch_and_add(1)))  # fetch once
        before = sys.stats.total_transactions
        sys.run_op(0, isa.rmw(B, fetch_and_add(1)))
        assert sys.stats.total_transactions == before


class TestBusHold:
    def test_holds_bus_longer(self):
        """The P&P variant holds the bus through the modify phase -- the
        disadvantage the paper points out."""
        hold = harness(RmwMethod.BUS_HOLD)
        hold.run_op(0, isa.read(B))
        hold.run_op(1, isa.read(B))
        hold.run_op(0, isa.rmw(B, tas(1)))
        hold_cycles = hold.stats.txn_cycles["UPGRADE"]

        plain = harness(RmwMethod.CACHE_HOLD)
        plain.run_op(0, isa.read(B))
        plain.run_op(1, isa.read(B))
        plain.run_op(0, isa.rmw(B, tas(1)))
        plain_cycles = plain.stats.txn_cycles["UPGRADE"]
        assert hold_cycles > plain_cycles


class TestOptimistic:
    def test_abort_when_block_stolen(self):
        """Method 3: if the write generates a miss, the block was stolen
        between the read and the write -- the instruction aborts."""
        sys = harness(RmwMethod.OPTIMISTIC)
        sys.run_op(1, isa.read(B))
        sys.run_op(0, isa.read(B))  # both hold read copies
        # Round-robin arbitration resumes after cache0 (the last winner),
        # so cache1's upgrade is granted first and steals the block while
        # cache0's RMW upgrade waits.
        sys.submit(1, isa.write(B, value=9))
        sys.submit(0, isa.rmw(B, tas(1)))
        sys.drain()
        done1 = sys.caches[1].take_completion()
        done0 = sys.caches[0].take_completion()
        assert done1 is not None
        assert done0 is not None and done0.aborted
        assert sys.stats.rmw_aborts == 1

    def test_no_abort_without_contention(self):
        sys = harness(RmwMethod.OPTIMISTIC)
        sys.run_op(0, isa.read(B))
        op = sys.run_op(0, isa.rmw(B, tas(1)))
        assert op.result == 1
        assert sys.stats.rmw_aborts == 0


class TestLockState:
    def test_contended_rmw_busy_waits_instead_of_retrying(self):
        """Method 4: the lock state makes a contended RMW wait on the
        busy-wait register -- zero retry traffic."""
        sys = harness(RmwMethod.LOCK_STATE, protocol="bitar-despain")
        sys.run_op(0, isa.lock(B))  # user-level lock held
        sys.submit(1, isa.rmw(B, tas(1)))
        sys.drain()
        assert sys.caches[1].waiting_for_lock
        before = sys.stats.total_transactions
        for _ in range(100):
            sys.step()
        assert sys.stats.total_transactions == before

    def test_rmw_on_own_dirty_source_copy_upgrades(self):
        """Regression: a lock-state RMW on a readable copy must request
        lock privilege only (Figure 5) -- refetching would overwrite the
        requester's own dirty-source data with stale memory contents."""
        sys = harness(RmwMethod.LOCK_STATE, protocol="bitar-despain")
        op = sys.run_op(1, isa.write(B + 1, value=7))  # cache1 dirty
        sys.run_op(0, isa.rmw(B, tas(1)))  # moves dirty data to cache0
        sys.run_op(1, isa.read(B))  # cache1 takes dirty source (RSD)
        assert sys.caches[1].line_for(B).read_word(1) == op.stamp
        sys.run_op(1, isa.rmw(B + 1, fetch_and_add(1)))  # RMW on own RSD copy
        assert sys.stats.txn_counts.get("UPGRADE", 0) >= 1
        got = sys.run_op(0, isa.read(B + 1))
        assert sys.stamp_clock.value_of(got.result) == 8  # 7 + 1, not stale
        assert sys.stats.stale_reads == 0

    def test_rmw_lock_released_at_write(self):
        """The lock taken at the read is released at the write: the block
        is not left locked."""
        sys = harness(RmwMethod.LOCK_STATE, protocol="bitar-despain")
        sys.run_op(0, isa.rmw(B, fetch_and_add(1)))
        from repro.cache.state import CacheState

        assert sys.line_state(0, B) is CacheState.WRITE_DIRTY


class TestEngineDefaults:
    def test_lock_state_falls_back_for_protocols_without_lock(self):
        config = SystemConfig(
            num_processors=1, protocol="goodman",
            rmw_method=RmwMethod.LOCK_STATE,
        )
        sim = Simulator(config, [Program([isa.rmw(B, tas(1))])])
        assert sim.caches[0].rmw_method is RmwMethod.CACHE_HOLD

    def test_write_through_defaults_to_memory_hold(self):
        config = SystemConfig(
            num_processors=1, protocol="write-through", strict_verify=False,
        )
        sim = Simulator(config, [Program([])])
        assert sim.caches[0].rmw_method is RmwMethod.MEMORY_HOLD

    def test_rudolph_segall_defaults_to_memory_hold(self):
        config = SystemConfig(
            num_processors=1, protocol="rudolph-segall",
            cache=CacheConfig(words_per_block=1),
        )
        sim = Simulator(config, [Program([])])
        assert sim.caches[0].rmw_method is RmwMethod.MEMORY_HOLD


#: The pairs whose RMW bus operations reach a row the protocol's table
#: lacks: no ``sn-write-word`` row (memory-hold), no ``sn-upgrade`` row
#: (write-through), or an exclusive fill landing in the transient WC
#: state (Rudolph-Segall).
REFUSED = {
    ("bitar-despain", RmwMethod.MEMORY_HOLD),
    ("synapse", RmwMethod.MEMORY_HOLD),
    *(("write-through", m) for m in (RmwMethod.CACHE_HOLD,
                                     RmwMethod.BUS_HOLD,
                                     RmwMethod.OPTIMISTIC)),
    *(("rudolph-segall", m) for m in (RmwMethod.CACHE_HOLD,
                                      RmwMethod.BUS_HOLD,
                                      RmwMethod.OPTIMISTIC)),
}

#: Served by the table, but a contended memory-hold TTAS lock reads a
#: stale lock word: the memory-hold RMW reads the word from memory even
#: when the requester itself holds the block dirty (its own unlock
#: write), then invalidates that dirty copy without a flush.
_STALE_UNDER_MEMORY_HOLD = pytest.mark.xfail(
    strict=True, raises=SerializationViolation,
    reason="memory-hold RMW ignores and drops the requester's own dirty "
           "copy (CHANGES.md FOUND line)")


def _matrix():
    for protocol in sorted(PROTOCOLS):
        for method in RmwMethod:
            marks = ()
            if (method is RmwMethod.MEMORY_HOLD and protocol in
                    ("berkeley", "goodman", "illinois", "yen")):
                marks = (_STALE_UNDER_MEMORY_HOLD,)
            yield pytest.param(protocol, method, marks=marks,
                               id=f"{protocol}-{method.value}")


class TestProtocolMethodMatrix:
    """Every protocol x RMW method either runs a contended TTAS lock
    clean or is refused with ConfigError at construction, before cycle 0
    -- never a missing-row ProtocolError mid-run."""

    @pytest.mark.parametrize("protocol,method", _matrix())
    def test_runs_clean_or_refused_up_front(self, protocol, method):
        config = SystemConfig(
            num_processors=2, protocol=protocol, rmw_method=method,
            strict_verify=protocol != "write-through",
            cache=CacheConfig(
                words_per_block=1 if protocol == "rudolph-segall" else 4),
        )
        programs = lock_contention(config, rounds=2,
                                   lock_style=LockStyle.TTAS)
        if (protocol, method) in REFUSED:
            with pytest.raises(ConfigError) as refused:
                Simulator(config, programs)
            assert protocol in str(refused.value)
            assert method.value in str(refused.value)
            return
        stats = Simulator(config, programs).run()
        assert [p.lock_acquisitions for p in stats.processors.values()] == [
            2, 2]
