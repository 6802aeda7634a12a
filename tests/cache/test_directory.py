"""Unit tests for directory-duality interference (Feature 3)."""

import pytest

from repro.bus.signals import SNOOP_MISS
from repro.bus.transaction import BusOp, BusTransaction
from repro.cache.cache import AccessStatus
from repro.cache.directory import DirectoryModel
from repro.cache.state import CacheState
from repro.common.config import CacheConfig, DirectoryKind
from repro.processor import isa
from repro.sim.harness import ManualSystem


def collide(kind: DirectoryKind) -> DirectoryModel:
    d = DirectoryModel(kind=kind)
    d.begin_cycle()
    d.record_status_write()
    d.record_snoop()
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
        d.begin_cycle()
        d.record_snoop()
        assert d.interference_cycles == 0

    def test_cycle_boundary_resets(self):
        d = DirectoryModel(kind=DirectoryKind.IDENTICAL_DUAL)
        d.begin_cycle()
        d.record_status_write()
        d.begin_cycle()  # new cycle: the write is no longer in flight
        d.record_snoop()
        assert d.interference_cycles == 0

    def test_interference_rate(self):
        d = DirectoryModel(kind=DirectoryKind.IDENTICAL_DUAL)
        d.begin_cycle()
        d.record_status_write()
        d.record_snoop()
        d.begin_cycle()
        d.record_snoop()
        assert d.interference_rate == 0.5

    def test_rate_zero_without_snoops(self):
        assert DirectoryModel(kind=DirectoryKind.IDENTICAL_DUAL).interference_rate == 0.0


class TestSnoopingCacheCharges:
    """``SnoopingCache`` charges its directory through the model above:
    a status write and a snoop in the same cycle interfere, even when
    the snoop is a fast miss on a block the cache does not hold."""

    @staticmethod
    def _write_then_snoop(kind: DirectoryKind, *, next_cycle: bool):
        system = ManualSystem(n_caches=2, cache_config=CacheConfig(
            words_per_block=4, num_blocks=4, directory=kind))
        cache = system.caches[0]
        cache.install_block(0, CacheState.WRITE_CLEAN, [0] * 4)
        assert system.submit(0, isa.write(0)) is AccessStatus.DONE
        if next_cycle:
            system.step()
        reply = cache.snoop(BusTransaction(op=BusOp.READ_BLOCK, block=8,
                                           requester=1, word=8))
        assert reply is SNOOP_MISS
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
