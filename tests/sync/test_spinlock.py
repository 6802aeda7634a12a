"""Unit tests for the synchronization library: the spinlock lowering
(:func:`repro.processor.program.lower_locks`) and the cache-state lock."""

from repro.processor import isa
from repro.processor.isa import OpKind
from repro.processor.program import LockStyle, lower_locks
from repro.sync import CacheLock


class TestTasLock:
    def test_acquire_shape(self):
        ops = lower_locks([isa.lock(8)], LockStyle.TAS)
        assert len(ops) == 1
        assert ops[0].kind is OpKind.TAS_ACQUIRE
        assert ops[0].addr == 8
        assert ops[0].value == 1

    def test_release_writes_zero(self):
        ops = lower_locks([isa.unlock(8, value=5)], LockStyle.TAS)
        assert ops[0].kind is OpKind.RELEASE
        assert ops[0].value == 0


class TestTtasLock:
    def test_acquire_kind(self):
        ops = lower_locks([isa.lock(0)], LockStyle.TTAS)
        assert ops[0].kind is OpKind.TTAS_ACQUIRE

    def test_ready_work(self):
        ops = lower_locks([isa.lock(0, ready_work=12)], LockStyle.TTAS)
        assert ops[0].ready_work == 12


class TestCacheLock:
    def test_acquire_is_lock_instruction(self):
        ops = CacheLock(0).acquire()
        assert ops[0].kind is OpKind.LOCK

    def test_release_is_unlock_write(self):
        ops = CacheLock(0).release(value=5)
        assert ops[0].kind is OpKind.UNLOCK
        assert ops[0].value == 5
