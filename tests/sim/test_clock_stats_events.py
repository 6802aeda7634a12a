"""Clock, stamp clock, and statistics."""

import pytest

from repro.sim.clock import Clock, StampClock
from repro.sim.stats import ProcessorStats, SimStats


class TestClock:
    def test_starts_at_zero(self):
        assert Clock().cycle == 0

    def test_tick(self):
        c = Clock()
        assert c.tick() == 1
        assert c.cycle == 1


class TestStampClock:
    def test_stamps_unique_and_increasing(self):
        s = StampClock()
        stamps = [s.next_stamp(1) for _ in range(10)]
        assert stamps == sorted(set(stamps))

    def test_value_roundtrip(self):
        s = StampClock()
        st = s.next_stamp(42)
        assert s.value_of(st) == 42

    def test_stamp_zero_reads_zero(self):
        assert StampClock().value_of(0) == 0

    def test_unknown_stamp_raises(self):
        with pytest.raises(KeyError):
            StampClock().value_of(99)


class TestSimStats:
    def test_record_txn(self):
        s = SimStats()
        s.record_txn("READ_BLOCK", 10)
        s.record_txn("READ_BLOCK", 5)
        assert s.txn_counts["READ_BLOCK"] == 2
        assert s.txn_cycles["READ_BLOCK"] == 15
        assert s.bus_busy_cycles == 15

    def test_bus_utilization(self):
        s = SimStats()
        s.cycles = 100
        s.bus_busy_cycles = 25
        assert s.bus_utilization == 0.25

    def test_utilization_zero_cycles(self):
        assert SimStats().bus_utilization == 0.0

    def test_write_hit_clean_frequency(self):
        s = SimStats()
        s.read_hits, s.write_hits, s.write_hits_to_clean = 80, 20, 2
        assert s.write_hit_to_clean_frequency == 0.02

    def test_processor_autocreate(self):
        s = SimStats()
        s.processor(3).reads += 1
        assert s.processors[3].reads == 1

    def test_to_dict_keys(self):
        d = SimStats().to_dict()
        assert "cycles" in d and "stale_reads" in d


class TestProcessorStats:
    def test_busy_cycles(self):
        p = ProcessorStats(compute_cycles=10, wait_work_cycles=5)
        assert p.busy_cycles == 15

    def test_total_cycles(self):
        p = ProcessorStats(compute_cycles=1, stall_cycles=2,
                           wait_idle_cycles=3, wait_work_cycles=4,
                           done_cycles=5)
        assert p.total_cycles == 15

