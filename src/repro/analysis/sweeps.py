"""Parameter-sweep utilities.

The figure-style benches all share a shape: vary one parameter, run a
deterministic simulation per point (optionally over several seeds), and
extract metrics.  These helpers centralize that, with seed statistics for
the stochastic workload generators.

Sweep points are independent simulations, so they parallelize trivially:
``Sweep.execute(jobs=N)`` fans the points out over a
:class:`~concurrent.futures.ProcessPoolExecutor`.  The ``run`` callable
must then be picklable -- a module-level function, not a lambda or
closure; metric extraction always happens in the parent process, so the
``metrics`` callables are unconstrained.

Per-point observability: a ``run`` callable may return an
:class:`ObservedPoint` instead of bare stats, carrying the point's
:class:`~repro.obs.core.ObsResult` (sample series, metric snapshot,
timeline).  ``ObsResult`` is plain data, so it survives pickling back
from the worker processes; after ``execute()`` the per-point results are
on :attr:`Sweep.observations` in sweep order.

Execution is resilient (see :mod:`repro.analysis.resilient`): pass an
:class:`~repro.analysis.resilient.ExecutionPolicy` to ``execute()`` for
per-point timeouts, bounded seeded retries, broken-pool recovery, fault
injection, and ``keep_going`` partial results.  A failed point's series
value is ``NaN``; its verdict is on :attr:`Sweep.outcomes`.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.analysis.resilient import (
    ExecutionPolicy,
    ExecutionReport,
    PointOutcome,
    execute_points,
)
from repro.obs.core import ObsResult
from repro.sim.stats import SimStats


@dataclass(frozen=True)
class ObservedPoint:
    """One sweep point's stats plus its observability payload."""

    stats: SimStats
    obs: ObsResult | None = None


def _ratio(a: float, b: float) -> float:
    """``a / b``, where x/0 is a signed infinity and 0/0 is NaN -- not
    +inf, which would smuggle a "ratio" out of two empty measurements."""
    if b != 0:
        return a / b
    if a == 0 or math.isnan(a):
        return math.nan
    return math.copysign(math.inf, a)


@dataclass
class SweepSeries:
    """One metric's values along a sweep."""

    name: str
    xs: list[float]
    values: list[float]

    def ratio_to(self, other: "SweepSeries") -> list[float]:
        if list(self.xs) != list(other.xs):
            raise ValueError("series sampled at different points")
        return [_ratio(a, b) for a, b in zip(self.values, other.values)]

    @property
    def monotone_increasing(self) -> bool:
        return all(b >= a for a, b in zip(self.values, self.values[1:]))

    @property
    def monotone_decreasing(self) -> bool:
        return all(b <= a for a, b in zip(self.values, self.values[1:]))


@dataclass
class Sweep:
    """Run a simulation per x value and collect named metrics."""

    xs: Sequence
    run: Callable[[object], "SimStats | ObservedPoint"]
    metrics: dict[str, Callable[[SimStats], float]] = field(default_factory=dict)
    #: Per-point ObsResults (sweep order) after execute(); None for points
    #: whose run callable returned bare stats.
    observations: list = field(default_factory=list, init=False, repr=False)
    #: Per-point SimStats (sweep order) after execute(); None for points
    #: that did not finish OK under a ``keep_going`` policy.
    results: list = field(default_factory=list, init=False, repr=False)
    #: Per-point :class:`~repro.analysis.resilient.PointOutcome` verdicts.
    outcomes: list = field(default_factory=list, init=False, repr=False)
    #: Plain-data retry/timeout/restart counters from the last execute().
    resilience: dict = field(default_factory=dict, init=False, repr=False)
    #: The executor's MetricRegistry from the last execute().
    registry: object = field(default=None, init=False, repr=False)

    def execute(self, jobs: int = 1,
                policy: ExecutionPolicy | None = None,
                warmup: Callable | None = None,
                progress: Callable | None = None) -> dict[str, SweepSeries]:
        """Run every point (resiliently) and collect the metric series.

        ``policy`` configures retries, per-point timeouts, fault
        injection, and the ``keep_going`` partial-results mode; the
        default policy preserves the historical behaviour of failing the
        sweep on the first bad point -- except the failure is now a
        :class:`~repro.common.errors.SweepPointError` naming the point.

        ``warmup`` (picklable, no arguments) runs once per worker
        process before its first point -- use it to hoist config and
        protocol construction out of the per-point path.

        ``progress`` is called in this process as
        ``progress(done, total, statuses)`` each time a point reaches a
        terminal status -- the hook behind ``repro sweep --progress``.
        """
        if not self.metrics:
            raise ValueError("no metrics to collect")
        report = execute_points(self.run, self.xs, jobs=jobs, policy=policy,
                                warmup=warmup, progress=progress)
        return self._collect_report(report)

    def _collect_report(self, report: ExecutionReport) -> dict[str, SweepSeries]:
        self.outcomes = list(report.outcomes)
        self.resilience = report.summary()
        self.registry = report.registry
        series = self._collect(report.payloads)
        # Fold each observed point's metric snapshot into the sweep-level
        # registry.  The snapshots are plain data (that is how they cross
        # the worker-process pickle boundary); counters and histograms
        # merge additively, gauges stay per-point.
        for obs in self.observations:
            if obs is not None and obs.metrics:
                report.registry.merge_snapshot(obs.metrics)
        return series

    def _collect(
        self, results: "Sequence[SimStats | ObservedPoint | None]"
    ) -> dict[str, SweepSeries]:
        """Extract every metric from the per-point stats, in sweep order.

        ``None`` entries (points that failed under ``keep_going``)
        yield ``NaN`` series values -- a partial series downstream code
        can mask rather than an aborted sweep.
        """
        stats_list = [
            r.stats if isinstance(r, ObservedPoint) else r for r in results
        ]
        self.results = stats_list
        self.observations = [
            r.obs if isinstance(r, ObservedPoint) else None for r in results
        ]
        xs = [float(x) for x in self.xs]
        return {
            name: SweepSeries(
                name=name, xs=xs,
                values=[float(extract(stats))
                        if stats is not None else math.nan
                        for stats in stats_list],
            )
            for name, extract in self.metrics.items()
        }


@dataclass(frozen=True)
class SeedStatistics:
    """Mean/spread of one metric across seeds."""

    mean: float
    std: float
    minimum: float
    maximum: float
    n: int

    def within(self, low: float, high: float) -> bool:
        return low <= self.mean <= high


def over_seeds(
    seeds: Sequence[int],
    run: Callable[[int], SimStats],
    extract: Callable[[SimStats], float],
) -> SeedStatistics:
    """Run once per seed and summarize the extracted metric."""
    if not seeds:
        raise ValueError("need at least one seed")
    values = [float(extract(run(seed))) for seed in seeds]
    return SeedStatistics(
        mean=statistics.fmean(values),
        std=statistics.stdev(values) if len(values) > 1 else 0.0,
        minimum=min(values),
        maximum=max(values),
        n=len(values),
    )
