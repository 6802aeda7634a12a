"""Unit tests for cache placement and replacement."""

from hypothesis import given
from hypothesis import strategies as st

from repro.cache.organization import CacheArray
from repro.cache.state import CacheState
from repro.common.config import CacheConfig


def make(num_blocks=4, assoc=None, wpb=4) -> CacheArray:
    return CacheArray(CacheConfig(words_per_block=wpb, num_blocks=num_blocks,
                                  assoc=assoc))


class TestLookup:
    def test_empty_lookup(self):
        assert make().lookup(0) is None

    def test_install_and_lookup(self):
        arr = make()
        victim = arr.choose_victim(0)
        line = arr.install(victim, 0, CacheState.READ, [1, 2, 3, 4], cycle=1)
        assert arr.lookup(0) is line

    def test_invalid_lines_not_found(self):
        arr = make()
        v = arr.choose_victim(0)
        line = arr.install(v, 0, CacheState.READ, [0] * 4, cycle=1)
        line.state = CacheState.INVALID
        assert arr.lookup(0) is None


class TestVictimChoice:
    def test_prefers_invalid_frame(self):
        arr = make(num_blocks=2)
        v = arr.choose_victim(0)
        arr.install(v, 0, CacheState.READ, [0] * 4, cycle=1)
        v2 = arr.choose_victim(4)
        assert not v2.valid

    def test_lru_when_full(self):
        arr = make(num_blocks=2)
        for i, cycle in [(0, 1), (4, 2)]:
            arr.install(arr.choose_victim(i), i, CacheState.READ, [0] * 4, cycle)
        victim = arr.choose_victim(8)
        assert victim.block == 0  # least recently used

    def test_touch_updates_lru(self):
        arr = make(num_blocks=2)
        l0 = arr.install(arr.choose_victim(0), 0, CacheState.READ, [0] * 4, 1)
        arr.install(arr.choose_victim(4), 4, CacheState.READ, [0] * 4, 2)
        arr.touch(l0, 3)
        assert arr.choose_victim(8).block == 4

    def test_skips_locked_victims(self):
        """Section E.3: a locked block should not be purged if any
        alternative exists."""
        arr = make(num_blocks=2)
        arr.install(arr.choose_victim(0), 0, CacheState.LOCK, [0] * 4, 1)
        arr.install(arr.choose_victim(4), 4, CacheState.READ, [0] * 4, 2)
        assert arr.choose_victim(8).block == 4  # not the locked (older) one

    def test_locked_chosen_only_when_unavoidable(self):
        arr = make(num_blocks=2)
        arr.install(arr.choose_victim(0), 0, CacheState.LOCK, [0] * 4, 1)
        arr.install(arr.choose_victim(4), 4, CacheState.LOCK_WAITER, [0] * 4, 2)
        assert arr.choose_victim(8).locked


class TestSetMapping:
    def test_blocks_map_to_distinct_sets(self):
        arr = make(num_blocks=8, assoc=2)  # 4 sets
        # Blocks 0 and 16 (block numbers 0 and 4) share set 0; block 4
        # (number 1) goes to set 1.
        s0 = arr._set_index(0)
        s1 = arr._set_index(4)
        s0b = arr._set_index(16)
        assert s0 == s0b
        assert s0 != s1

    def test_conflict_within_set(self):
        arr = make(num_blocks=4, assoc=2, wpb=4)  # 2 sets, 2 ways
        # Block numbers 0, 2, 4 all map to set 0 (even numbers).
        arr.install(arr.choose_victim(0), 0, CacheState.READ, [0] * 4, 1)
        arr.install(arr.choose_victim(8), 8, CacheState.READ, [0] * 4, 2)
        victim = arr.choose_victim(16)
        assert victim.valid and victim.block == 0

    def test_fully_associative_no_conflicts(self):
        arr = make(num_blocks=4)
        for i in range(4):
            block = i * 4
            arr.install(arr.choose_victim(block), block, CacheState.READ,
                        [0] * 4, i)
        assert all(arr.lookup(i * 4) is not None for i in range(4))


class TestLines:
    def test_lines_lists_valid_only(self):
        arr = make(num_blocks=4)
        arr.install(arr.choose_victim(0), 0, CacheState.READ, [0] * 4, 1)
        assert [l.block for l in arr.lines()] == [0]


class TestLruProperties:
    @given(accesses=st.lists(st.integers(0, 9), min_size=1, max_size=60))
    def test_most_recent_survives_and_lookup_is_exact(self, accesses):
        """Under any access pattern: the most recently touched block is
        never the next victim, a lookup never returns the wrong block,
        and the array never exceeds capacity."""
        arr = make(num_blocks=4, wpb=4)
        cycle = 0
        last_touched = None
        for block_no in accesses:
            cycle += 1
            block = block_no * 4
            line = arr.lookup(block)
            if line is None:
                victim = arr.choose_victim(block)
                line = arr.install(victim, block, CacheState.READ,
                                   [0] * 4, cycle)
            else:
                arr.touch(line, cycle)
            last_touched = block
            assert len(arr.lines()) <= 4
            for resident in arr.lines():
                found = arr.lookup(resident.block)
                assert found is resident
        victim = arr.choose_victim(999 * 4)
        if victim.valid and len(arr.lines()) > 1:
            assert victim.block != last_touched

    @given(accesses=st.lists(st.integers(0, 9), min_size=8, max_size=40))
    def test_set_mapping_is_stable(self, accesses):
        """A block always maps to the same set (direct-mapped)."""
        arr = make(num_blocks=4, assoc=1, wpb=4)
        for block_no in accesses:
            block = block_no * 4
            idx = arr._set_index(block)
            assert idx == arr._set_index(block)
            victim = arr.choose_victim(block)
            arr.install(victim, block, CacheState.READ, [0] * 4, 1)
            assert arr.lookup(block) is not None


#: A frame never filled, as ``signature()`` hashes it with two-word
#: blocks: tag -1, invalid, never-written words, no sub-block bits.
_UNUSED = (-1, "I", (0, 0), None, None)


class TestLazyFrames:
    """Frames are created on first fill; victims and signatures are
    those of an array whose every frame exists from the start (the
    constants below were recorded from such an array)."""

    def test_fresh_signature(self):
        arr = make(num_blocks=4, assoc=2, wpb=2)
        assert arr.signature() == (((_UNUSED, _UNUSED), (0, 1)),
                                   ((_UNUSED, _UNUSED), (0, 1)))
        assert arr.set_of(0) == [] and arr.lines() == []

    def test_fill_invalidate_refill_evict(self):
        """Two ways, two sets: fill, a locked fill, invalidate, refill
        into the invalid frame, LRU eviction that passes over the older
        locked line, and a fill at cycle 0 (its LRU clock ties with the
        unused frame's)."""
        arr = make(num_blocks=4, assoc=2, wpb=2)
        steps = []

        def fill(block, state, cycle):
            victim = arr.choose_victim(block)
            before = (victim.block, victim.state.value, victim.valid)
            line = arr.install(victim, block, state, [cycle] * 2, cycle)
            steps.append((block, before, arr.set_of(block).index(line)))
            return line

        first = fill(0, CacheState.READ, 1)
        fill(4, CacheState.LOCK, 2)
        first.state = CacheState.INVALID
        fill(8, CacheState.READ, 3)
        fill(12, CacheState.READ, 4)
        fill(2, CacheState.READ, 0)
        assert steps == [
            (0, (-1, "I", False), 0),
            (4, (-1, "I", False), 1),
            (8, (0, "I", False), 0),
            (12, (8, "R", True), 0),
            (2, (-1, "I", False), 0),
        ]
        assert arr.signature() == (
            (((12, "R", (4, 4), None, None), (4, "L", (2, 2), None, None)),
             (1, 0)),
            (((2, "R", (0, 0), None, None), _UNUSED), (0, 1)),
        )

    def test_set_of_never_offers_an_unused_frame(self):
        """Rudolph-Segall's update-invalid snoop revalidates an invalid
        frame of the set whose tag matches; a frame never filled must
        never be one it could match."""
        arr = make(num_blocks=4, assoc=2, wpb=1)
        arr.choose_victim(0)  # a new frame, not yet filled
        assert arr.set_of(0) == []
        line = arr.install(arr.choose_victim(0), 0, CacheState.READ, [5], 1)
        line.state = CacheState.INVALID
        arr.choose_victim(2)  # the invalidated frame, offered again
        assert arr.set_of(0) == [line]
        for block in range(8):
            for frame in arr.set_of(block):
                assert frame.block >= 0
