"""The resilient sweep executor under injected chaos.

The tests drive :func:`repro.analysis.resilient.execute_points` with a
seeded :class:`~repro.faults.FaultPlan`; the assertions are exact
because the whole fault/retry/backoff pipeline is deterministic for a
fixed seed.  One test kills a worker with no plan at all, where only
the killer's verdict is deterministic.
"""

import json
import os

import pytest

from repro.analysis.resilient import (
    BACKOFF_JITTER,
    BACKOFF_MAX,
    POINT_STATUSES,
    ExecutionPolicy,
    execute_points,
)
from repro.common.errors import SweepPointError
from repro.faults import FaultPlan


def _square(x):
    """Stand-in point runner; module-level so worker pools can pickle
    it.  Returns real SimStats so the executor's validation passes."""
    from repro import api

    return api._sweep_point(2, protocol="bitar-despain",
                            workload="lock-contention")


def _lock_point(n):
    """A real point whose stats depend on ``x`` (``n`` processors)."""
    from repro import api

    return api._sweep_point(n, protocol="bitar-despain",
                            workload="lock-contention")


def _dies_at_three(n):
    """Takes its worker process down at x=3 with no fault plan: the
    executor sees a bare broken pool, with nothing to attribute it."""
    if n == 3:
        os._exit(1)
    return _lock_point(n)


class TestSerial:
    def test_clean_run(self):
        report = execute_points(_square, [2, 3], policy=ExecutionPolicy())
        assert report.ok
        assert [o.status for o in report.outcomes] == ["ok", "ok"]
        assert all(p is not None for p in report.payloads)

    def test_raise_retried_to_success(self):
        plan = FaultPlan.parse("raise@1")
        report = execute_points(_square, [2, 3, 4],
                                policy=ExecutionPolicy(faults=plan))
        assert report.ok
        assert report.outcomes[1].attempts == 2
        assert report.summary()["retries"] == {"raise": 1}

    def test_corrupt_stats_rejected_and_retried(self):
        plan = FaultPlan.parse("corrupt@0")
        report = execute_points(_square, [2, 3],
                                policy=ExecutionPolicy(faults=plan))
        assert report.ok
        assert report.summary()["retries"] == {"corrupt": 1}

    def test_exhausted_point_raises_sweep_point_error(self):
        plan = FaultPlan.parse("raise@1:*")
        with pytest.raises(SweepPointError) as info:
            execute_points(_square, [2, 3], policy=ExecutionPolicy(
                faults=plan, max_attempts=2))
        assert info.value.index == 1
        assert info.value.x == 3
        assert info.value.attempts == 2

    def test_keep_going_returns_partial_results(self):
        plan = FaultPlan.parse("raise@1:*")
        report = execute_points(_square, [2, 3, 4], policy=ExecutionPolicy(
            faults=plan, max_attempts=2, keep_going=True))
        assert not report.ok
        assert [o.status for o in report.outcomes] == ["ok", "failed", "ok"]
        assert report.payloads[0] is not None
        assert report.payloads[1] is None
        assert report.outcomes[1].error is not None
        assert report.summary()["statuses"] == {"ok": 2, "failed": 1}

    def test_serial_kill_degrades_to_raise(self):
        # Killing the orchestrator's own process would end the test
        # run; the serial path must degrade KILL to RAISE instead.
        plan = FaultPlan.parse("kill@0")
        report = execute_points(_square, [2], policy=ExecutionPolicy(faults=plan))
        assert report.ok
        assert report.outcomes[0].attempts == 2


class TestParallelChaos:
    def test_kill_breaks_and_respawns_the_pool(self):
        plan = FaultPlan.parse("kill@1")
        report = execute_points(_square, [2, 3, 4, 5], jobs=2,
                                policy=ExecutionPolicy(faults=plan))
        assert report.ok
        summary = report.summary()
        assert summary["retries"] == {"kill": 1}
        assert summary["pool_restarts"] == {"broken": 1}

    def test_hang_times_out_and_recovers(self):
        plan = FaultPlan.parse("hang@2", hang_seconds=60.0)
        report = execute_points(_square, [2, 3, 4], jobs=2,
                                policy=ExecutionPolicy(faults=plan, timeout=1.0))
        assert report.ok
        summary = report.summary()
        assert summary["retries"] == {"timeout": 1}
        assert summary["pool_restarts"] == {"timeout": 1}

    def test_persistent_killer_quarantined_others_survive(self):
        plan = FaultPlan.parse("kill@1:*")
        report = execute_points(_square, [2, 3, 4], jobs=2, policy=ExecutionPolicy(
            faults=plan, max_attempts=2, keep_going=True))
        assert [o.status for o in report.outcomes] == \
            ["ok", "quarantined", "ok"]
        assert report.payloads[1] is None

    def test_unattributed_worker_death_is_quarantined(self):
        # No fault plan: the pool just breaks.  Every point in flight is
        # charged the death, so the killer is quarantined; whether an
        # innocent neighbour is also charged depends on timing.
        xs = [2, 3, 4, 5]
        report = execute_points(_dies_at_three, xs, jobs=2,
                                policy=ExecutionPolicy(keep_going=True))
        assert report.outcomes[1].status == "quarantined"
        assert report.payloads[1] is None
        assert report.summary()["pool_restarts"]["broken"] >= 1
        for x, outcome, payload in zip(xs, report.outcomes, report.payloads):
            if outcome.ok:
                assert payload.to_payload() == _lock_point(x).to_payload()

    def test_acceptance_kill_plus_hang(self):
        # The ISSUE acceptance scenario: one SIGKILL, one hang, four
        # points, two workers -- everything recovers, exactly one pool
        # restart per cause.
        plan = FaultPlan.parse("kill@1,hang@2", hang_seconds=60.0)
        report = execute_points(_square, [2, 3, 4, 5], jobs=2,
                                policy=ExecutionPolicy(faults=plan, timeout=2.0,
                                               keep_going=True))
        assert report.ok
        assert report.summary() == {
            "statuses": {"ok": 4},
            "retries": {"kill": 1, "timeout": 1},
            "pool_restarts": {"broken": 1, "timeout": 1},
        }


class TestDeterminism:
    def test_backoff_schedule_is_seeded(self):
        def schedule(policy, index):
            return [policy.backoff_delay(index, failures)
                    for failures in range(1, policy.max_attempts)]

        policy = ExecutionPolicy(max_attempts=4, seed=9)
        again = ExecutionPolicy(max_attempts=4, seed=9)
        assert schedule(policy, 3) == schedule(again, 3)
        assert schedule(policy, 3) != schedule(policy, 4)

    def test_backoff_is_bounded(self):
        policy = ExecutionPolicy(max_attempts=6, seed=1)
        for failures in range(1, policy.max_attempts):
            delay = policy.backoff_delay(0, failures)
            assert 0.0 < delay <= BACKOFF_MAX * (1.0 + BACKOFF_JITTER)

    def test_chaos_outcomes_bit_identical(self):
        def serialize(report):
            return json.dumps({
                "outcomes": [o.to_dict() for o in report.outcomes],
                "summary": report.summary(),
            }, sort_keys=True)

        plan = FaultPlan.parse("kill@1,raise@0", seed=5, hang_seconds=60.0)
        runs = [
            execute_points(_square, [2, 3, 4, 5], jobs=2,
                           policy=ExecutionPolicy(faults=plan, timeout=5.0,
                                          seed=5, keep_going=True))
            for _ in range(2)
        ]
        assert serialize(runs[0]) == serialize(runs[1])


class TestRegistry:
    def test_counters_exported(self):
        plan = FaultPlan.parse("raise@0")
        report = execute_points(_square, [2, 3],
                                policy=ExecutionPolicy(faults=plan))
        snapshot = report.registry.snapshot()
        assert "sweep_point_retries_total" in snapshot
        assert "sweep_points_total" in snapshot
        values = snapshot["sweep_points_total"]["values"]
        assert sum(entry["value"] for entry in values) == 2

    def test_statuses_are_known(self):
        plan = FaultPlan.parse("raise@0:*")
        report = execute_points(_square, [2], policy=ExecutionPolicy(
            faults=plan, max_attempts=2, keep_going=True))
        for outcome in report.outcomes:
            assert outcome.status in POINT_STATUSES
