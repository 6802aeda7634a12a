"""Unit tests for directory-duality interference (Feature 3)."""

import pytest

from repro.bus.transaction import BusOp, BusTransaction
from repro.cache.cache import AccessStatus
from repro.cache.directory import BroadcastLog, DirectoryModel
from repro.cache.state import CacheState
from repro.common.config import CacheConfig, DirectoryKind
from repro.processor import isa
from repro.sim.harness import ManualSystem


def collide(kind: DirectoryKind) -> DirectoryModel:
    d = DirectoryModel(kind=kind)
    d.record_status_write(1)
    d.record_delivery(1)
    return d


class TestInterference:
    def test_identical_dual_interferes(self):
        assert collide(DirectoryKind.IDENTICAL_DUAL).interference_cycles == 1

    def test_dual_ported_read_interferes_on_writes(self):
        """DPR has dual-ported *reads*; a status write still blocks."""
        assert collide(DirectoryKind.DUAL_PORTED_READ).interference_cycles == 1

    def test_non_identical_dual_never_interferes(self):
        """NID keeps dirty status only in the processor directory."""
        assert collide(DirectoryKind.NON_IDENTICAL_DUAL).interference_cycles == 0

    def test_no_collision_without_status_write(self):
        d = DirectoryModel(kind=DirectoryKind.IDENTICAL_DUAL)
        d.record_delivery(1)
        assert d.interference_cycles == 0

    def test_cycle_boundary_resets(self):
        d = DirectoryModel(kind=DirectoryKind.IDENTICAL_DUAL)
        d.record_status_write(1)
        # New cycle: the write is no longer in flight.
        d.record_delivery(2)
        assert d.interference_cycles == 0

    def test_interference_rate(self):
        d = DirectoryModel(kind=DirectoryKind.IDENTICAL_DUAL)
        d.record_status_write(1)
        d.record_delivery(1)
        d.record_delivery(2)
        assert d.interference_rate == 0.5

    def test_rate_zero_without_snoops(self):
        assert DirectoryModel(kind=DirectoryKind.IDENTICAL_DUAL).interference_rate == 0.0


def _watching(*logs: BroadcastLog,
              kind=DirectoryKind.IDENTICAL_DUAL) -> DirectoryModel:
    d = DirectoryModel(kind=kind)
    for log in logs:
        d.watch(log)
    return d


class TestBroadcastLog:
    """A broadcast snoops every watching model but the requester's, and
    settles the same rule as one delivery to each."""

    def test_write_then_broadcast_interferes(self):
        log = BroadcastLog()
        d = _watching(log)
        d.record_status_write(1)
        log.record(1, None)
        assert (d.status_writes, d.snoops, d.interference_cycles) == (1, 1, 1)

    def test_broadcast_then_write_interferes(self):
        log = BroadcastLog()
        d = _watching(log)
        log.record(1, None)
        d.record_status_write(1)
        assert d.interference_cycles == 1

    def test_next_cycle_broadcast_does_not_interfere(self):
        log = BroadcastLog()
        d = _watching(log)
        d.record_status_write(1)
        log.record(2, None)
        assert (d.snoops, d.interference_cycles) == (1, 0)

    def test_own_broadcast_snoops_nobody_else(self):
        log = BroadcastLog()
        requester, other = _watching(log), _watching(log)
        requester.record_status_write(1)
        log.record(1, requester)
        requester.record_status_write(1)
        assert (requester.snoops, requester.interference_cycles) == (0, 0)
        assert other.snoops == 1

    def test_two_writes_before_one_broadcast_charge_once(self):
        log = BroadcastLog()
        d = _watching(log)
        d.record_status_write(1)
        d.record_status_write(1)
        log.record(1, None)
        assert d.interference_cycles == 1
        d.record_status_write(1)  # after the snoop: charges again
        assert d.interference_cycles == 2

    def test_each_bus_snoops_once_per_broadcast(self):
        """Two buses broadcasting in one cycle are two snoops."""
        first, second = BroadcastLog(), BroadcastLog()
        d = _watching(first, second)
        d.record_status_write(1)
        first.record(1, None)
        second.record(1, None)
        assert (d.snoops, d.interference_cycles) == (2, 2)

    def test_non_identical_dual_never_interferes(self):
        log = BroadcastLog()
        d = _watching(log, kind=DirectoryKind.NON_IDENTICAL_DUAL)
        d.record_status_write(1)
        log.record(1, None)
        d.record_status_write(1)
        assert (d.status_writes, d.snoops, d.interference_cycles) == (2, 1, 0)


class TestSnoopingCacheCharges:
    """A ``SnoopingCache``'s directory is charged through the model
    above, by its own status writes and by the bus delivering it a
    snoop: a status write and a snoop in the same cycle interfere, even
    when the snoop is a fast miss on a block the cache does not hold."""

    @staticmethod
    def _write_then_snoop(kind: DirectoryKind, *, next_cycle: bool):
        system = ManualSystem(n_caches=2, cache_config=CacheConfig(
            words_per_block=4, num_blocks=4, directory=kind))
        cache = system.caches[0]
        cache.install_block(0, CacheState.WRITE_CLEAN, [0] * 4)
        assert system.submit(0, isa.write(0)) is AccessStatus.DONE
        if next_cycle:
            system.step()
        replies = system.bus._snoop_all(
            system.caches[1],
            BusTransaction(op=BusOp.READ_BLOCK, block=8, requester=1,
                           word=8))
        # The bus keeps every reply but SNOOP_MISS: cache 0 fast-missed.
        assert replies == {}
        return cache.directory

    @pytest.mark.parametrize("kind, charged", [
        (DirectoryKind.IDENTICAL_DUAL, 1),
        (DirectoryKind.DUAL_PORTED_READ, 1),
        (DirectoryKind.NON_IDENTICAL_DUAL, 0),
    ])
    def test_same_cycle_snoop_interferes(self, kind, charged):
        directory = self._write_then_snoop(kind, next_cycle=False)
        assert (directory.status_writes, directory.snoops) == (1, 1)
        assert directory.interference_cycles == charged

    def test_later_snoop_does_not_interfere(self):
        directory = self._write_then_snoop(DirectoryKind.IDENTICAL_DUAL,
                                           next_cycle=True)
        assert directory.snoops == 1
        assert directory.interference_cycles == 0
