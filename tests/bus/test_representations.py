"""Unit tests for the pluggable sharer-set representations, their
config plumbing, and the directory-fabric accounting satellites.

The load-bearing invariant is *conservatism*: whatever a representation
forgets, the set of caches it admits probing (``listed`` plus, when
``overflowed``, everyone) must stay a superset of the caches that would
react to a snoop.  The representation unit tests pin the exact
overflow/collapse and region mechanics that keep it.
"""

import pytest

from repro.common.config import CacheConfig, SystemConfig, TopologyConfig
from repro.common.errors import ConfigError
from repro.directory_backend.representations import (
    DIRECTORY_ENTRY_KINDS,
    CoarseVector,
    FullBitVector,
    LimitedPointerSet,
    bits_per_block,
    representation_factory,
)


class TestFullBitVector:
    def test_is_exact_set_behavior(self):
        v = FullBitVector()
        v.enroll(3)
        v.enroll(5)
        assert v.listed(3) and v.listed(5) and not v.listed(4)
        assert sorted(v) == [3, 5]
        v.discard(3)
        assert not v.listed(3)

    def test_never_overflows(self):
        v = FullBitVector()
        for cid in range(1000):
            v.enroll(cid)
        assert not v.overflowed
        assert len(v) == 1000

    def test_refresh_partitions_membership(self):
        v = FullBitVector({1, 2, 3})
        v.refresh([4], [2, 3], complete=False)
        assert sorted(v) == [1, 4]

    def test_storage_is_one_bit_per_cache(self):
        assert FullBitVector().bits_per_block(256) == 256


class TestLimitedPointer:
    def test_precise_until_pointers_exhausted(self):
        s = LimitedPointerSet(2)
        s.enroll(7)
        s.enroll(9)
        assert not s.overflowed
        assert s.listed(7) and s.listed(9)

    def test_overflow_loses_the_new_sharer_not_the_pointers(self):
        s = LimitedPointerSet(2, members=[7, 9])
        s.enroll(11)
        assert s.overflowed
        # The 11th cache is *not* tracked -- only probe-all reaches it.
        assert not s.listed(11)
        assert s.listed(7) and s.listed(9)

    def test_re_enrolling_a_listed_cache_never_overflows(self):
        s = LimitedPointerSet(1, members=[7])
        s.enroll(7)
        assert not s.overflowed

    def test_complete_refresh_collapses_out_of_overflow(self):
        s = LimitedPointerSet(2, members=[7, 9])
        s.enroll(11)
        assert s.overflowed
        # A broadcast probe round found only cache 11 still caring: the
        # survivors fit the pointers, so precision is rebuilt.
        s.refresh([11], [7, 9], complete=True)
        assert not s.overflowed
        assert sorted(s) == [11]

    def test_complete_refresh_stays_overflowed_when_survivors_spill(self):
        s = LimitedPointerSet(2)
        s.refresh([1, 2, 3], [], complete=True)
        assert s.overflowed

    def test_incomplete_refresh_cannot_collapse(self):
        s = LimitedPointerSet(1, members=[7])
        s.enroll(9)
        assert s.overflowed
        # A probe-listed round never covers the untracked sharers, so
        # it must not clear the broadcast bit.
        s.refresh([7], [], complete=False)
        assert s.overflowed

    def test_storage_is_pointers_times_log_n_plus_flag(self):
        # Dir-2-B at 256 caches: two 8-bit pointers + the broadcast bit.
        assert LimitedPointerSet(2).bits_per_block(256) == 17

    def test_rejects_nonpositive_pointer_count(self):
        with pytest.raises(ValueError, match=">= 1 pointer"):
            LimitedPointerSet(0)


class TestCoarseVector:
    def test_listing_is_per_region(self):
        v = CoarseVector(4)
        v.enroll(5)
        # The whole region [4, 8) is admitted: a superset of the truth.
        assert v.listed(4) and v.listed(5) and v.listed(7)
        assert not v.listed(8)
        assert sorted(v) == [4, 5, 6, 7]

    def test_discard_clears_the_whole_region(self):
        v = CoarseVector(4, members=[4, 5])
        v.discard(4)
        assert not v.listed(5)

    def test_refresh_rederives_bits_from_survivors(self):
        v = CoarseVector(4, members=[0, 5])
        v.refresh([9], [0, 5], complete=False)
        assert not v.listed(0) and not v.listed(5)
        assert v.listed(8)  # region of cache 9

    def test_never_enters_broadcast_mode(self):
        v = CoarseVector(2)
        for cid in range(64):
            v.enroll(cid)
        assert not v.overflowed

    def test_storage_is_one_bit_per_region(self):
        assert CoarseVector(4).bits_per_block(256) == 64
        assert CoarseVector(4).bits_per_block(258) == 65  # ceiling

    def test_rejects_nonpositive_region_size(self):
        with pytest.raises(ValueError, match="region size >= 1"):
            CoarseVector(0)


class TestMembers:
    """``members`` yields exactly what ``listed`` admits, in ascending
    id (port) order: the directory computes its peers guard and the
    probe-listed set from it."""

    @staticmethod
    def _entries():
        full = FullBitVector()
        for cid in (9, 2, 5):
            full.enroll(cid)
        precise = LimitedPointerSet(3, [7, 1])
        overflowed = LimitedPointerSet(2)
        for cid in (6, 3, 8):
            overflowed.enroll(cid)
        coarse = CoarseVector(4, [13, 2])
        return [full, precise, overflowed, coarse]

    @pytest.mark.parametrize("index", range(4))
    def test_members_are_the_listed_ids_in_order(self, index):
        entry = self._entries()[index]
        listed = [cid for cid in range(-1, 20) if entry.listed(cid)]
        assert list(entry.members()) == listed
        assert listed

    def test_coarse_members_cover_whole_regions(self):
        assert list(CoarseVector(4, [13, 2]).members()) == [
            0, 1, 2, 3, 12, 13, 14, 15]

    def test_overflowed_members_are_the_kept_pointers(self):
        entry = LimitedPointerSet(2)
        for cid in (6, 3, 8):
            entry.enroll(cid)
        assert entry.overflowed
        assert list(entry.members()) == [3, 6]


class TestFactoryAndConfig:
    def test_factory_builds_every_kind(self):
        built = {
            kind: representation_factory(
                TopologyConfig(kind="directory", directory_entry=kind))()
            for kind in DIRECTORY_ENTRY_KINDS
        }
        assert isinstance(built["full-bit-vector"], FullBitVector)
        assert isinstance(built["limited-pointer"], LimitedPointerSet)
        assert isinstance(built["coarse-vector"], CoarseVector)

    def test_factory_honours_the_knobs(self):
        topo = TopologyConfig(kind="directory",
                              directory_entry="limited-pointer",
                              directory_pointers=5)
        assert representation_factory(topo)().pointers == 5
        topo = TopologyConfig(kind="directory",
                              directory_entry="coarse-vector",
                              directory_region_size=8)
        assert representation_factory(topo)().region_size == 8

    def test_bits_per_block_helper(self):
        assert bits_per_block(TopologyConfig(kind="directory"), 64) == 64
        assert bits_per_block(
            TopologyConfig(kind="directory",
                           directory_entry="coarse-vector",
                           directory_region_size=4), 64) == 16

    def test_unknown_entry_kind_rejected_by_config(self):
        with pytest.raises(ConfigError, match="unknown directory entry"):
            TopologyConfig(kind="directory", directory_entry="sparse")

    def test_nonpositive_knobs_rejected_by_config(self):
        with pytest.raises(ConfigError,
                           match="directory_pointers must be positive"):
            TopologyConfig(kind="directory", directory_pointers=0)
        with pytest.raises(ConfigError,
                           match="directory_region_size must be positive"):
            TopologyConfig(kind="directory", directory_region_size=-1)


def _sharing_sim(topology=None, obs=None):
    from repro.sim.engine import Simulator
    from repro.workloads.registry import build_workload

    config = SystemConfig(
        num_processors=4,
        protocol="bitar-despain",
        cache=CacheConfig(words_per_block=4, num_blocks=8),
        topology=topology,
    )
    programs = build_workload("sharing", config)
    return Simulator(config, programs, obs=obs)


class TestCaresAbout:
    def test_tracks_cached_blocks(self):
        sim = _sharing_sim()
        sim.run()
        for cache in sim.caches:
            tagged = {line.block for line in cache.array.lines()}
            assert tagged, "sharing workload left a cache empty"
            for block in tagged:
                assert cache.cares_about(block)
            untouched = max(tagged) + 64
            assert not cache.cares_about(untouched)

    def test_agrees_with_the_snoop_fast_miss(self):
        """``snoop`` must fast-miss exactly when ``cares_about`` says
        no -- the directory's membership predicate and the bus's snoop
        filter are one decision."""
        from repro.bus.transaction import BusOp, BusTransaction

        sim = _sharing_sim()
        sim.run()
        cache = sim.caches[0]
        cared = cache.array.lines()[0].block
        uncared = cared + 64
        assert not cache.cares_about(uncared)
        reply = cache.snoop(BusTransaction(
            op=BusOp.READ_BLOCK, block=uncared, requester=1))
        assert not reply.hit and not reply.supplies


class TestDirectoryAccounting:
    def test_message_tallies_keys_come_from_the_banks(self):
        """A bank growing a new tally kind must flow through
        ``message_tallies`` instead of raising."""
        topo = TopologyConfig(kind="directory", directory_banks=2)
        sim = _sharing_sim(topology=topo)
        sim.run()
        bank = sim.bus.banks[0]
        original = bank.tallies

        def patched():
            return {**original(), "probes": 17}

        bank.tallies = patched
        tallies = sim.bus.message_tallies()
        assert tallies["probes"] == 17
        assert tallies["requests"] > 0

    def test_obs_counters_match_the_bank_tallies(self):
        """Single-source accounting: the observability counters and the
        banks' tallies are fed by the same arithmetic, so their totals
        must agree kind for kind on an observed contended run."""
        from repro.obs import Observability

        obs = Observability(interval=16)
        topo = TopologyConfig(kind="directory", directory_banks=2)
        sim = _sharing_sim(topology=topo, obs=obs)
        sim.run()
        tallies = sim.bus.message_tallies()
        assert sum(tallies.values()) > 0
        counted: dict[str, float] = {}
        for (kind, _bank), value in obs.registry.get("directory_msgs_total").values.items():
            counted[kind] = counted.get(kind, 0) + value
        # Tally keys are the plural of the obs counter's kind label.
        for kind, total in tallies.items():
            assert counted.get(kind[:-1], 0) == total, (
                f"obs counter for {kind} disagrees with the bank tallies"
            )
