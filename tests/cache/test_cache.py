"""The snooping cache: dispatch, guards, bookkeeping."""

import dataclasses

import pytest

from repro.bus.transaction import BusOp
from repro.cache.cache import AccessStatus
from repro.cache.state import CacheState
from repro.common.config import RmwMethod
from repro.common.errors import ProgramError, ProtocolError
from repro.processor import isa
from repro.processor.isa import Op, OpKind
from repro.protocols.base import NeedBus
from repro.sim.harness import ManualSystem

B = 0


class TestBlockingDiscipline:
    def test_second_access_while_pending_rejected(self, two_caches):
        two_caches.submit(0, isa.read(B))  # miss: pending
        with pytest.raises(ProgramError):
            two_caches.submit(0, isa.read(B + 4))

    def test_take_completion_clears_pending(self, two_caches):
        two_caches.run_op(0, isa.read(B))
        assert two_caches.caches[0].pending is None
        two_caches.submit(0, isa.read(B + 4))  # accepted again


class TestAddressHelpers:
    def test_block_and_offset(self, two_caches):
        cache = two_caches.caches[0]
        assert cache.block_of(6) == 4
        assert cache.offset(6) == 2


class TestWriteGuards:
    def test_write_without_privilege_raises(self, two_caches):
        two_caches.run_op(1, isa.read(B))
        two_caches.run_op(0, isa.read(B))  # READ-state copies around
        cache = two_caches.caches[1]
        line = cache.line_for(B)
        with pytest.raises(ProtocolError):
            cache.apply_write(line, B, stamp=999)

    def test_invalidate_locked_line_raises(self, two_caches):
        two_caches.run_op(0, isa.lock(B))
        cache = two_caches.caches[0]
        with pytest.raises(ProtocolError):
            cache.invalidate_line(cache.line_for(B))
        two_caches.submit(0, isa.unlock(B))


class TestHitMissCounting:
    def test_read_hits_and_misses(self, two_caches):
        two_caches.run_op(0, isa.read(B))
        two_caches.run_op(0, isa.read(B + 1))
        two_caches.run_op(0, isa.read(B + 2))
        assert two_caches.stats.read_misses == 1
        assert two_caches.stats.read_hits == 2

    def test_upgrade_counts_as_write_hit(self, two_caches):
        two_caches.run_op(1, isa.read(B))
        two_caches.run_op(0, isa.read(B))
        two_caches.run_op(0, isa.write(B))  # upgrade: the data was present
        assert two_caches.stats.write_hits == 1
        assert two_caches.stats.write_misses == 0

    def test_write_miss_counted(self, two_caches):
        two_caches.run_op(0, isa.write(B))
        assert two_caches.stats.write_misses == 1

    def test_write_hits_to_clean(self, two_caches):
        two_caches.run_op(0, isa.read(B))  # WC (Figure 1)
        two_caches.run_op(0, isa.write(B))  # clean -> dirty
        two_caches.run_op(0, isa.write(B))  # already dirty
        assert two_caches.stats.write_hits_to_clean == 1


class TestSaveBlock:
    def test_save_block_writes_every_word(self, two_caches):
        two_caches.run_op(0, isa.save_block(B, value=9))
        line = two_caches.caches[0].line_for(B)
        values = [two_caches.stamp_clock.value_of(s) for s in line.words]
        assert values == [9, 9, 9, 9]

    def test_save_block_hit_needs_no_bus(self, two_caches):
        two_caches.run_op(0, isa.write(B))
        before = two_caches.stats.total_transactions
        status = two_caches.submit(0, isa.save_block(B))
        assert status is AccessStatus.DONE
        assert two_caches.stats.total_transactions == before

    def test_save_block_miss_uses_write_no_fetch(self, two_caches):
        two_caches.run_op(1, isa.read(B))
        two_caches.run_op(0, isa.save_block(B))
        assert two_caches.stats.txn_counts["WRITE_NO_FETCH"] == 1
        assert two_caches.stats.fetches_avoided == 1
        assert two_caches.line_state(1, B) is CacheState.INVALID

    def test_save_block_oracle_consistent(self, two_caches):
        two_caches.run_op(0, isa.save_block(B, value=5))
        got = two_caches.run_op(1, isa.read(B + 2))
        assert got.result == two_caches.oracle.latest(B + 2)


class TestCancelWait:
    """E.4: 'the waiting processes were switched out of their
    processors' -- a cancelled wait leaves a spurious broadcast behind."""

    def test_cancel_wait_releases_pending(self, two_caches):
        two_caches.run_op(0, isa.lock(B))
        two_caches.submit(1, isa.lock(B))
        two_caches.drain()
        assert two_caches.caches[1].cares_about(B)
        two_caches.caches[1].cancel_wait()
        assert not two_caches.caches[1].busy_wait.active
        assert two_caches.caches[1].pending is None
        # The register's pin goes with it: snoops on B fast-miss again.
        assert not two_caches.caches[1].cares_about(B)

    def test_cancel_without_wait_raises(self, two_caches):
        with pytest.raises(ProgramError):
            two_caches.caches[0].cancel_wait()

    def test_unlock_after_cancel_is_spurious_broadcast(self, two_caches):
        two_caches.run_op(0, isa.lock(B))
        two_caches.submit(1, isa.lock(B))
        two_caches.drain()
        two_caches.caches[1].cancel_wait()
        two_caches.submit(0, isa.unlock(B))
        two_caches.drain()
        assert two_caches.stats.unlock_broadcasts == 1
        assert two_caches.stats.spurious_unlock_broadcasts == 1
        # The block ends up unlocked and available.
        assert two_caches.line_state(0, B) is CacheState.WRITE_DIRTY


class TestLockErrors:
    def test_double_lock_same_block_rejected(self, two_caches):
        two_caches.run_op(0, isa.lock(B))
        with pytest.raises(ProgramError):
            two_caches.submit(0, isa.lock(B))
        two_caches.submit(0, isa.unlock(B))

    def test_unlock_not_locked_rejected(self, two_caches):
        two_caches.run_op(0, isa.write(B))
        with pytest.raises(ProgramError):
            two_caches.submit(0, isa.unlock(B))

    def test_unlock_other_caches_lock_rejected(self, two_caches):
        """The unlocker must be the holder: a non-holder has no valid
        line (the holder is exclusive), so its unlock refetches and the
        memory-tag path rejects it... in-cache, unlocking someone else's
        block is simply a write to a block you do not hold; with the
        block locked elsewhere the refetch is refused and the unlock
        waits -- it can never release a foreign lock."""
        two_caches.run_op(0, isa.lock(B))
        status = two_caches.submit(1, isa.unlock(B))
        two_caches.drain()
        assert two_caches.caches[1].waiting_for_lock
        assert two_caches.line_state(0, B) is CacheState.LOCK_WAITER


class TestRevalidationRefiles:
    """Revalidating a queued request re-files it in the requester index:
    the converted request may differ in priority and in whether it
    revalidates, and arbitration reads both from the index."""

    @pytest.mark.parametrize("high", [False, True])
    @pytest.mark.parametrize("lock_intent", [True, False],
                             ids=["rmw-lock-state", "write"])
    def test_upgrade_that_lost_its_copy(self, two_caches, lock_intent,
                                        high):
        cache = two_caches.caches[0]
        bus = two_caches.bus
        cache.rmw_method = RmwMethod.LOCK_STATE
        two_caches.run_op(1, isa.read(B))
        two_caches.run_op(0, isa.read(B))  # a shared, read-only copy
        op = (isa.rmw(B, isa.test_and_set(1)) if lock_intent
              else isa.write(B))
        assert two_caches.submit(0, op) is AccessStatus.PENDING
        if high:
            # As a waiter woken by an unlock broadcast re-posts it.
            cache.pending.request = cache.pending.request.prioritized()
            cache._sync_request()
        assert cache.pending.request.op is BusOp.UPGRADE
        assert cache.pending.request.lock_intent is lock_intent
        assert 0 in bus._sensitive
        assert (0 in bus._high) is high
        bus.check_requester_index()

        # A snooped invalidation takes the copy while the upgrade waits.
        cache.invalidate_line(cache.line_for(B))
        assert cache.has_bus_request()

        request = cache.pending.request
        assert request.op is not BusOp.UPGRADE
        if lock_intent:
            # The lock request keeps its lock intent and its priority.
            assert request.op is BusOp.READ_LOCK and request.lock_intent
            assert request.high_priority is high
        else:
            # A plain write becomes a write miss at normal priority.
            assert not request.high_priority
        assert 0 in bus._requesters
        assert 0 not in bus._sensitive
        assert (0 in bus._high) is request.high_priority
        bus.check_requester_index()


class TestPrioritized:
    def test_copies_every_field_and_sets_the_priority_bit(self):
        need = NeedBus(op=BusOp.UPDATE_WORD, word=5, stamp=7,
                       lock_intent=True, update_invalid=True, extra_hold=3)
        assert need.prioritized() == dataclasses.replace(
            need, high_priority=True)
        # Every field but the priority bit differs from its default, so a
        # field the copy dropped would show above.
        defaults = NeedBus(op=BusOp.UPGRADE)
        assert all(getattr(need, f.name) != getattr(defaults, f.name)
                   for f in dataclasses.fields(NeedBus)
                   if f.name != "high_priority")
