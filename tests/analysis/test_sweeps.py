"""Sweep utilities."""

import math

import pytest

from repro import SystemConfig, run_workload
from repro.analysis.sweeps import (
    SeedStatistics,
    Sweep,
    SweepSeries,
    over_seeds,
)
from repro.workloads import interleaved_sharing, lock_contention


def _lock_contention_point(n):
    """Module-level so the parallel sweep's process pool can pickle it."""
    config = SystemConfig(num_processors=int(n))
    return run_workload(config, lock_contention(config, rounds=2))


class TestSweep:
    def test_collects_metrics_along_x(self):
        def run(n):
            config = SystemConfig(num_processors=int(n))
            return run_workload(config, lock_contention(config, rounds=2))

        result = Sweep(
            xs=[2, 4],
            run=run,
            metrics={
                "cycles": lambda s: s.cycles,
                "acquisitions": lambda s: s.total_lock_acquisitions,
            },
        ).execute()
        assert set(result) == {"cycles", "acquisitions"}
        assert list(result["acquisitions"].values) == [4.0, 8.0]
        assert result["cycles"].monotone_increasing

    def test_no_metrics_rejected(self):
        with pytest.raises(ValueError):
            Sweep(xs=[1], run=lambda x: None, metrics={}).execute()


class TestParallelSweep:
    def _sweep(self):
        return Sweep(
            xs=[2, 3, 4, 5],
            run=_lock_contention_point,
            metrics={
                "cycles": lambda s: s.cycles,
                "acquisitions": lambda s: s.total_lock_acquisitions,
            },
        )

    def test_parallel_matches_serial(self):
        serial = self._sweep().execute()
        parallel = self._sweep().execute(jobs=2)
        for name in serial:
            assert list(serial[name].values) == list(parallel[name].values)
            assert list(serial[name].xs) == list(parallel[name].xs)

    def test_jobs_one_stays_serial(self):
        result = self._sweep().execute(jobs=1)
        assert list(result["acquisitions"].values) == [4.0, 6.0, 8.0, 10.0]

    def test_execute_jobs_kwarg(self):
        result = self._sweep().execute(jobs=2)
        assert result["cycles"].monotone_increasing


class TestSweepSeries:
    def test_ratio(self):
        xs = [1.0, 2.0]
        a = SweepSeries("a", xs, [2.0, 4.0])
        b = SweepSeries("b", xs, [1.0, 2.0])
        assert list(a.ratio_to(b)) == [2.0, 2.0]

    def test_ratio_guards_zero(self):
        xs = [1.0]
        a = SweepSeries("a", xs, [2.0])
        b = SweepSeries("b", xs, [0.0])
        assert a.ratio_to(b)[0] == math.inf

    def test_ratio_zero_over_zero_is_nan(self):
        # 0/0 used to come out as +inf, smuggling a "ratio" out of two
        # empty measurements.
        xs = [1.0]
        a = SweepSeries("a", xs, [0.0])
        b = SweepSeries("b", xs, [0.0])
        assert math.isnan(a.ratio_to(b)[0])

    def test_ratio_negative_over_zero_is_negative_inf(self):
        xs = [1.0, 2.0]
        a = SweepSeries("a", xs, [-2.0, 3.0])
        b = SweepSeries("b", xs, [0.0, 0.0])
        ratios = a.ratio_to(b)
        assert ratios[0] == -math.inf
        assert ratios[1] == math.inf

    def test_mismatched_xs_rejected(self):
        a = SweepSeries("a", [1.0], [2.0])
        b = SweepSeries("b", [2.0], [2.0])
        with pytest.raises(ValueError):
            a.ratio_to(b)

    def test_monotone_flags(self):
        xs = [1.0, 2.0, 3.0]
        up = SweepSeries("u", xs, [1.0, 2.0, 3.0])
        down = SweepSeries("d", xs, [3.0, 2.0, 1.0])
        assert up.monotone_increasing and not up.monotone_decreasing
        assert down.monotone_decreasing


class TestOverSeeds:
    def test_statistics(self):
        def run(seed):
            config = SystemConfig(num_processors=2, seed=seed)
            return run_workload(
                config, interleaved_sharing(config, references=60, seed=seed)
            )

        stats = over_seeds([1, 2, 3], run, lambda s: s.cycles)
        assert stats.n == 3
        assert stats.minimum <= stats.mean <= stats.maximum
        assert stats.std >= 0

    def test_single_seed(self):
        stats = over_seeds([1], lambda seed: None,
                           lambda s: 5.0)
        assert stats.mean == 5.0 and stats.std == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            over_seeds([], lambda s: None, lambda s: 0.0)

    def test_within(self):
        assert SeedStatistics(5.0, 0.1, 4.9, 5.1, 3).within(4.0, 6.0)
        assert not SeedStatistics(5.0, 0.1, 4.9, 5.1, 3).within(6.0, 7.0)


def _observed_point(n):
    """Module-level observed point with a counter and a histogram; the
    process pool pickles the reduced ObsResult, not the registry."""
    from repro.obs.core import ObsResult
    from repro.obs.registry import MetricRegistry

    config = SystemConfig(num_processors=int(n))
    stats = run_workload(config, lock_contention(config, rounds=2))
    reg = MetricRegistry()
    reg.counter("point_txns").inc(stats.total_transactions)
    reg.histogram("point_cycles", buckets=(500, 5000)).observe(stats.cycles)
    from repro.analysis.sweeps import ObservedPoint

    return ObservedPoint(stats=stats, obs=ObsResult(
        interval=1, cycles=stats.cycles, metrics=reg.snapshot()))


class TestObservedMetricMerging:
    def _sweep(self):
        return Sweep(xs=[2, 3, 4], run=_observed_point,
                     metrics={"cycles": lambda s: s.cycles})

    def test_histograms_merge_across_points(self):
        sweep = self._sweep()
        sweep.execute()
        snap = sweep.registry.snapshot()
        assert snap["point_cycles"]["kind"] == "histogram"
        merged = snap["point_cycles"]["values"][0]
        assert merged["count"] == 3
        assert sum(merged["bucket_counts"]) == 3
        totals = sum(s.cycles for s in sweep.results)
        assert merged["sum"] == pytest.approx(totals)

    def test_counters_merge_across_points(self):
        sweep = self._sweep()
        sweep.execute()
        snap = sweep.registry.snapshot()
        expected = sum(s.total_transactions for s in sweep.results)
        assert snap["point_txns"]["values"][0]["value"] == expected

    def test_parallel_merge_matches_serial(self):
        serial = self._sweep()
        serial.execute()
        parallel = self._sweep()
        parallel.execute(jobs=2)
        assert (parallel.registry.snapshot()["point_cycles"]
                == serial.registry.snapshot()["point_cycles"])


class TestProgressCallback:
    def test_progress_reports_every_terminal_point(self):
        calls = []
        sweep = Sweep(xs=[2, 3, 4], run=_observed_point,
                      metrics={"cycles": lambda s: s.cycles})
        sweep.execute(progress=lambda done, total, statuses:
                      calls.append((done, total, dict(statuses))))
        assert [done for done, _, _ in calls] == [1, 2, 3]
        assert all(total == 3 for _, total, _ in calls)
        done, total, statuses = calls[-1]
        assert statuses["ok"] == 3
        assert sum(statuses.values()) == 3
