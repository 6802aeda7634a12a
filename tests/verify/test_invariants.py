"""The invariant checker detects corrupted coherence states."""

import pytest

from repro.cache.organization import PIN
from repro.cache.state import CacheState
from repro.common.errors import CoherenceViolation
from repro.processor import isa
from repro.sim.harness import ManualSystem
from repro.verify.invariants import InvariantChecker

B = 0


def checker_for(sys: ManualSystem) -> InvariantChecker:
    return InvariantChecker.for_system(sys.caches, sys.memory, sys.oracle)


class TestCleanSystemPasses:
    def test_after_mixed_traffic(self, three_caches):
        three_caches.run_op(0, isa.write(B))
        three_caches.run_op(1, isa.read(B))
        three_caches.run_op(2, isa.read(B + 4))
        checker_for(three_caches).check_all()


class TestSingleWriter:
    def test_two_writers_detected(self, two_caches):
        two_caches.run_op(0, isa.write(B))
        line = two_caches.caches[1].install_block(
            B, CacheState.WRITE_DIRTY, [0, 0, 0, 0]
        )
        with pytest.raises(CoherenceViolation, match="multiple writers"):
            checker_for(two_caches).check_all()

    def test_writer_plus_reader_detected(self, two_caches):
        two_caches.run_op(0, isa.write(B))
        two_caches.caches[1].install_block(B, CacheState.READ, [0, 0, 0, 0])
        with pytest.raises(CoherenceViolation, match="exclusive"):
            checker_for(two_caches).check_all()


class TestSingleSource:
    def test_two_sources_detected(self, two_caches):
        two_caches.run_op(1, isa.read(B))
        two_caches.run_op(0, isa.read(B))  # cache0 is now the source (RSC)
        # Corrupt: promote cache1 back to a source state.
        two_caches.caches[1].line_for(B).state = CacheState.READ_SOURCE_CLEAN
        with pytest.raises(CoherenceViolation, match="multiple sources"):
            checker_for(two_caches).check_all()

    def test_illinois_exempt(self):
        """Feature 8 ARB: every Illinois read copy is a potential source."""
        sys = ManualSystem(protocol="illinois", n_caches=3)
        sys.run_op(0, isa.read(B))
        sys.run_op(1, isa.read(B))
        sys.run_op(2, isa.read(B))
        checker_for(sys).check_all()  # must not raise


class TestLatestReachable:
    def test_dropped_write_detected(self, two_caches):
        op = two_caches.run_op(0, isa.write(B))
        # Corrupt: silently drop the dirty line.
        two_caches.caches[0].line_for(B).state = CacheState.INVALID
        with pytest.raises(CoherenceViolation, match="no cache"):
            checker_for(two_caches).check_all()

    def test_flushed_write_ok(self, two_caches):
        two_caches.run_op(0, isa.write(B))
        line = two_caches.caches[0].line_for(B)
        two_caches.memory.write_block(B, line.snapshot())
        line.state = CacheState.INVALID
        checker_for(two_caches).check_all()


class TestWaiterLiveness:
    def test_stranded_waiter_detected(self, two_caches):
        two_caches.run_op(0, isa.lock(B))
        two_caches.submit(1, isa.lock(B))
        two_caches.drain()
        # Corrupt: the holder forgets the waiter.
        two_caches.caches[0].line_for(B).state = CacheState.LOCK
        with pytest.raises(CoherenceViolation, match="busy-waits"):
            checker_for(two_caches).check_all()

    def test_healthy_wait_passes(self, two_caches):
        two_caches.run_op(0, isa.lock(B))
        two_caches.submit(1, isa.lock(B))
        two_caches.drain()
        checker_for(two_caches).check_all()


class TestRequesterIndex:
    def _checker(self, sys: ManualSystem) -> InvariantChecker:
        return InvariantChecker.for_system(sys.caches, sys.memory,
                                           sys.oracle, fabric=sys.bus)

    def test_posted_request_is_indexed(self, two_caches):
        two_caches.submit(0, isa.read(B))
        self._checker(two_caches).check_all()  # must not raise

    def test_unindexed_request_detected(self, two_caches):
        two_caches.submit(0, isa.read(B))
        two_caches.bus._requesters.clear()
        with pytest.raises(CoherenceViolation, match="requester index"):
            self._checker(two_caches).check_all()

    def test_priority_subindex_corruption_detected(self, two_caches):
        two_caches.submit(0, isa.read(B))
        assert not two_caches.caches[0].bus_request_priority()
        two_caches.bus._high.add(0)
        with pytest.raises(CoherenceViolation, match="priority index"):
            self._checker(two_caches).check_all()

    def test_revalidation_subindex_corruption_detected(self, two_caches):
        two_caches.run_op(1, isa.read(B))
        two_caches.run_op(0, isa.read(B))
        two_caches.submit(0, isa.write(B))  # an upgrade: it revalidates
        assert two_caches.caches[0].bus_request_revalidates()
        two_caches.bus._sensitive.discard(0)
        with pytest.raises(CoherenceViolation, match="revalidation index"):
            self._checker(two_caches).check_all()


class TestInterestIndex:
    """Each cache's interest index counts its tagged frames plus its
    armed busy-wait register; a missed pin or unpin would let the snoop
    fast-miss a block the cache must react to."""

    def test_tags_and_register_pass(self, two_caches):
        two_caches.run_op(0, isa.lock(B))
        two_caches.submit(1, isa.lock(B))
        two_caches.drain()
        holder, waiter = two_caches.caches
        assert holder.array._interest == {B: [holder.line_for(B)]}
        assert waiter.array._interest == {B: [PIN]}  # the register
        checker_for(two_caches).check_all()

    def test_completed_wait_unpins(self, two_caches):
        two_caches.run_op(0, isa.lock(B))
        two_caches.submit(1, isa.lock(B))
        two_caches.drain()
        two_caches.submit(0, isa.unlock(B))
        two_caches.drain()
        waiter = two_caches.caches[1]
        assert waiter.take_completion() is not None
        assert not waiter.busy_wait.active
        assert waiter.array._interest == {B: [waiter.line_for(B)]}
        checker_for(two_caches).check_all()

    def test_missed_register_pin_detected(self, two_caches):
        two_caches.run_op(0, isa.lock(B))
        two_caches.submit(1, isa.lock(B))
        two_caches.drain()
        two_caches.caches[1].array.unpin(B)  # corrupt: forget the pin
        with pytest.raises(CoherenceViolation, match="interest index"):
            checker_for(two_caches).check_all()

    def test_stale_register_pin_detected(self, two_caches):
        two_caches.run_op(0, isa.lock(B))
        two_caches.submit(1, isa.lock(B))
        two_caches.drain()
        # Corrupt: the wait ends, the pin stays.
        two_caches.caches[1].busy_wait.clear()
        with pytest.raises(CoherenceViolation, match="interest index"):
            checker_for(two_caches).check_all()

    def test_frame_listed_twice_detected(self, two_caches):
        two_caches.run_op(0, isa.read(B))
        array = two_caches.caches[0].array
        array._interest[B].append(array.lookup(B))  # a frame listed twice
        with pytest.raises(CoherenceViolation, match="interest index"):
            checker_for(two_caches).check_all()
