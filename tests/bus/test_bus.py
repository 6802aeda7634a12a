"""The bus: grant execution, durations, snoop exclusion."""

import pytest

from repro.common.config import CacheConfig, TimingConfig
from repro.processor import isa
from repro.sim.harness import ManualSystem

B = 0


def timing() -> TimingConfig:
    return TimingConfig()


class TestDurations:
    """Bus occupancy per transaction type must follow TimingConfig."""

    def test_memory_fetch_duration(self):
        sys = ManualSystem(n_caches=2)
        sys.run_op(0, isa.read(B))
        t = timing()
        expected = t.bus_address_cycles + t.memory_latency + 4
        assert sys.stats.txn_cycles["READ_BLOCK"] == expected

    def test_cache_to_cache_faster_than_memory(self):
        sys = ManualSystem(n_caches=2)
        sys.run_op(1, isa.write(B))
        mem_cycles = sys.stats.txn_cycles["READ_EXCL"]
        sys.run_op(0, isa.read(B))  # supplied c2c
        c2c_cycles = sys.stats.txn_cycles["READ_BLOCK"]
        assert c2c_cycles < mem_cycles

    def test_upgrade_one_cycle(self):
        sys = ManualSystem(n_caches=2)
        sys.run_op(1, isa.read(B))
        sys.run_op(0, isa.read(B))
        sys.run_op(0, isa.write(B))
        assert sys.stats.txn_cycles["UPGRADE"] == timing().invalidate_cycles

    def test_lock_refusal_one_cycle(self):
        sys = ManualSystem(n_caches=2)
        sys.run_op(0, isa.lock(B))
        sys.submit(1, isa.lock(B))
        sys.drain()
        # The refused READ_LOCK consumed only its address cycle.
        total_lock_cycles = sys.stats.txn_cycles["READ_LOCK"]
        first_fetch = timing().memory_block_cycles(4)
        assert total_lock_cycles == first_fetch + timing().invalidate_cycles

    def test_victim_flush_extends_occupancy(self):
        """Purging a dirty victim adds the write-back to the fetch's bus
        tenure."""
        from repro.common.config import CacheConfig

        sys = ManualSystem(
            n_caches=1,
            cache_config=CacheConfig(words_per_block=4, num_blocks=1),
        )
        sys.run_op(0, isa.write(B))  # dirty resident
        base = sys.stats.txn_cycles["READ_EXCL"]
        sys.run_op(0, isa.read(64))  # evicts the dirty block
        t = timing()
        fetch = t.memory_block_cycles(4)
        flush = t.bus_address_cycles + t.memory_latency + 4
        assert sys.stats.txn_cycles["READ_BLOCK"] == fetch + flush
        assert sys.stats.flushes == 1

    def test_write_word_duration(self):
        sys = ManualSystem(protocol="goodman", n_caches=1)
        sys.run_op(0, isa.read(B))
        sys.run_op(0, isa.write(B))
        assert sys.stats.txn_cycles["WRITE_WORD"] == timing().word_write_cycles()

    def test_source_arbitration_costs_extra(self):
        t = timing()
        sys = ManualSystem(protocol="illinois", n_caches=3)
        sys.run_op(0, isa.read(B))   # exclusive: supplies directly
        sys.run_op(1, isa.read(B))   # direct supply (no arbitration)
        direct = sys.stats.txn_cycles["READ_BLOCK"]
        sys.run_op(2, isa.read(B))   # two READ holders arbitrate
        total = sys.stats.txn_cycles["READ_BLOCK"]
        assert total - direct == (
            t.cache_block_cycles(4, arbitrate=True)
        )


class TestSnoopScope:
    def test_requester_does_not_snoop_itself(self):
        sys = ManualSystem(n_caches=2)
        sys.run_op(0, isa.write(B))
        # If the requester snooped its own READ_EXCL it would invalidate
        # itself; holding the block afterwards proves it did not.
        assert sys.caches[0].line_for(B) is not None

    def test_attach_duplicate_port_rejected(self):
        sys = ManualSystem(n_caches=2)
        with pytest.raises(ValueError):
            sys.bus.attach(sys.caches[0])


class TestTransferUnits:
    """Section D.3: sub-block transfer units change words moved."""

    def _tu_system(self) -> ManualSystem:
        return ManualSystem(
            n_caches=2,
            cache_config=CacheConfig(words_per_block=8, num_blocks=16,
                                     transfer_unit_words=2),
        )

    def test_fetch_moves_one_unit(self):
        sys = self._tu_system()
        sys.run_op(0, isa.read(B))
        t = timing()
        expected = t.bus_address_cycles + t.memory_latency + 2  # 2 words
        assert sys.stats.txn_cycles["READ_BLOCK"] == expected

    def test_supply_moves_dirty_units(self):
        sys = self._tu_system()
        sys.run_op(0, isa.read(B))
        sys.run_op(0, isa.write(B))      # unit 0 dirty
        sys.run_op(0, isa.write(B + 4))  # unit 2 dirty
        before = sys.stats.txn_cycles["READ_BLOCK"]
        sys.run_op(1, isa.read(B))
        t = timing()
        moved = sys.stats.txn_cycles["READ_BLOCK"] - before
        # 2 dirty units x 2 words each, supplied cache-to-cache.
        assert moved == t.bus_address_cycles + t.cache_supply_latency + 4

    def test_flush_writes_only_dirty_units(self):
        sys = ManualSystem(
            n_caches=1,
            cache_config=CacheConfig(words_per_block=8, num_blocks=1,
                                     transfer_unit_words=2),
        )
        sys.run_op(0, isa.write(B))  # one dirty unit
        sys.run_op(0, isa.read(64))  # evict
        t = timing()
        fetch = t.bus_address_cycles + t.memory_latency + 2
        flush = t.bus_address_cycles + t.memory_latency + 2  # 1 unit
        assert sys.stats.txn_cycles["READ_BLOCK"] == fetch + flush
