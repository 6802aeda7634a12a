"""The observability layer itself: null object, sampling, lock slices,
and the process-pool sweep path."""

from __future__ import annotations

import pickle

import pytest

from repro import CacheConfig, SystemConfig
from repro.analysis.sweeps import ObservedPoint, Sweep
from repro.obs import NULL_OBS, Observability, ObsResult
from repro.obs.null import NullObservability
from repro.processor.program import LockStyle
from repro.sim.engine import Simulator
from repro.sim.stats import SimStats
from repro.workloads import lock_contention


class TestNullObservability:
    def test_inactive_and_inert(self):
        assert not NULL_OBS.active
        # Every hook call site checks ``obs.active`` first; the null
        # object has no hooks, so an unguarded call fails loudly.
        assert not [n for n in dir(NULL_OBS) if n.startswith("record_")]
        assert not hasattr(NULL_OBS, "on_advance")
        assert not hasattr(NULL_OBS, "on_run_end")

    def test_refuses_binding(self):
        with pytest.raises(RuntimeError):
            NULL_OBS.bind(SimStats())

    def test_disabled_simulator_uses_shared_null_object(self):
        config = SystemConfig(num_processors=2)
        programs = lock_contention(config, rounds=1)
        sim = Simulator(config, programs)
        assert sim.obs is NULL_OBS
        assert isinstance(sim.obs, NullObservability)


class TestBinding:
    def test_simulator_binds_and_enables_event_feed(self):
        config = SystemConfig(num_processors=2)
        programs = lock_contention(config, rounds=1)
        obs = Observability()
        sim = Simulator(config, programs, obs=obs)
        # The sampler reads the run's own counters.
        assert obs.sampler._stats is sim.stats
        sim.run()
        assert obs.sampler.samples[-1]["transactions"] == (
            sim.stats.total_transactions)

    def test_rebinding_to_another_run_raises(self):
        obs = Observability()
        stats = SimStats()
        obs.bind(stats)
        obs.bind(stats)  # same run: idempotent
        with pytest.raises(RuntimeError):
            obs.bind(SimStats())

    def test_one_instance_per_simulation_enforced_end_to_end(self):
        config = SystemConfig(num_processors=2)
        programs = lock_contention(config, rounds=1)
        obs = Observability()
        Simulator(config, programs, obs=obs).run()
        with pytest.raises(RuntimeError):
            Simulator(config, programs, obs=obs)


class TestSampling:
    def test_samples_on_interval_boundaries_plus_final_partial(
            self, observed):
        obs, stats = observed
        cycles = [s["cycle"] for s in obs.sampler.samples]
        interval = obs.sampler.interval
        full = [c for c in cycles if c % interval == 0 and c <= stats.cycles]
        assert full == list(range(interval, full[-1] + 1, interval))
        assert cycles[-1] == stats.cycles
        assert cycles == sorted(set(cycles))

    def test_cumulative_fields_match_final_stats(self, observed):
        obs, stats = observed
        last = obs.sampler.samples[-1]
        assert last["bus_busy_cycles"] == stats.bus_busy_cycles
        assert last["transactions"] == stats.total_transactions
        assert last["invalidations"] == stats.invalidations_received
        assert last["lock_acquisitions"] == stats.total_lock_acquisitions
        assert last["txn_mix"] == dict(stats.txn_counts)

    def test_lock_waiters_gauge_moves(self, observed):
        obs, _stats = observed
        assert any(s["lock_waiters"] > 0 for s in obs.sampler.samples)
        assert obs.sampler.samples[-1]["lock_waiters"] == 0

    def test_interval_validation(self):
        with pytest.raises(ValueError):
            Observability(interval=0)


class TestLockTimeline:
    def test_hold_and_wait_slices_recorded(self, observed):
        obs, stats = observed
        holds = [s for s in obs.slices if s["name"].startswith("hold ")]
        waits = [s for s in obs.slices if s["name"].startswith("wait ")]
        assert len(holds) == stats.total_lock_acquisitions
        assert waits, "contended run produced no wait slices"
        assert all(s["dur"] >= 0 for s in obs.slices)
        assert all(s["start"] + s["dur"] <= stats.cycles for s in obs.slices)

    def test_hold_histogram_matches_stats(self, observed):
        obs, stats = observed
        hist = obs.registry.get("lock_hold_cycles")
        assert hist.count(block=0) == stats.total_lock_acquisitions


class TestResult:
    def test_result_is_plain_picklable_data(self, observed):
        obs, stats = observed
        result = obs.result()
        assert isinstance(result, ObsResult)
        assert result.cycles == stats.cycles
        clone = pickle.loads(pickle.dumps(result))
        assert clone == result
        assert clone.to_dict() == result.to_dict()


def _observed_sweep_point(n) -> ObservedPoint:
    """Module-level so ProcessPoolExecutor can pickle it."""
    config = SystemConfig(
        num_processors=int(n),
        cache=CacheConfig(words_per_block=4, num_blocks=64),
    )
    programs = lock_contention(config, rounds=2, think_cycles=5,
                               lock_style=LockStyle.CACHE_LOCK)
    obs = Observability(interval=50)
    stats = Simulator(config, programs, obs=obs).run()
    return ObservedPoint(stats=stats, obs=obs.result())


class TestSweepIntegration:
    def test_observations_survive_the_process_pool(self):
        sweep = Sweep(xs=[2, 3], run=_observed_sweep_point,
                      metrics={"cycles": lambda s: s.cycles})
        serial = sweep.execute(jobs=1)
        serial_obs = list(sweep.observations)
        parallel = sweep.execute(jobs=2)
        assert list(serial["cycles"].values) == list(parallel["cycles"].values)
        assert sweep.observations == serial_obs
        assert all(isinstance(o, ObsResult) for o in sweep.observations)
        assert all(o.samples for o in sweep.observations)

    def test_bare_stats_points_leave_none_observations(self):
        stats = SimStats()
        stats.cycles = 7
        sweep = Sweep(xs=[1], run=lambda x: stats,
                      metrics={"cycles": lambda s: s.cycles})
        sweep.execute()
        assert sweep.observations == [None]
