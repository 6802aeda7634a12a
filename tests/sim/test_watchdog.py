"""The engine wall-clock watchdog."""

import pytest

from repro import api
from repro.common.errors import WatchdogTimeout
from repro.sim.engine import Simulator
from tests.conftest import engines


def _machine():
    config = api._build_config("bitar-despain", processors=2)
    return config, api.build_workload("lock-contention", config)


class TestWatchdog:
    def test_generous_budget_does_not_change_results(self):
        plain = api.simulate(processors=2).stats.to_payload()
        config, programs = _machine()
        watched = engines(config, programs, max_wall_seconds=300.0)
        assert [s.to_payload() for s in watched] == [plain, plain]

    def test_zero_budget_aborts_immediately(self):
        with pytest.raises(WatchdogTimeout):
            api.simulate(processors=2, max_wall_seconds=0.0)

    def test_fast_forward_path_is_watched(self):
        with pytest.raises(WatchdogTimeout):
            Simulator(*_machine()).run(max_wall_seconds=0.0)

    def test_stepped_path_is_watched(self):
        with pytest.raises(WatchdogTimeout):
            Simulator(*_machine(), fast_forward=False).run(
                max_wall_seconds=0.0)

    def test_diagnostics_describe_the_machine(self):
        with pytest.raises(WatchdogTimeout) as info:
            api.simulate(processors=3, max_wall_seconds=0.0)
        exc = info.value
        assert exc.budget_seconds == 0.0
        assert exc.elapsed_seconds >= 0.0
        diag = exc.diagnostics
        assert diag["cycle"] >= 0
        assert "busy" in diag["bus"]
        assert "bus_requests_pending" in diag
        assert len(diag["processors"]) == 3
        for proc in diag["processors"]:
            assert {"pid", "done", "pc", "state"} <= set(proc)
        assert isinstance(diag["caches"], list)
        assert isinstance(diag["lock_queue"], list)

    def test_message_names_the_budget(self):
        with pytest.raises(WatchdogTimeout, match="wall-clock"):
            api.simulate(processors=2, max_wall_seconds=0.0)

    def test_unarmed_run_has_no_watchdog(self):
        result = api.simulate(processors=2)
        assert result.stats.cycles > 0


class TestDiagnosticsAreReadOnly:
    """A watchdog snapshot must not change the run it describes.  On
    Illinois with optimistic test-and-set, a queued upgrade whose copy
    was stolen aborts when it is revalidated; a snapshot that
    revalidated would abort it early."""

    @staticmethod
    def _sim():
        from repro import CacheConfig, SystemConfig
        from repro.common.config import RmwMethod
        from repro.processor.program import LockStyle
        from repro.workloads import lock_contention

        config = SystemConfig(num_processors=4, protocol="illinois",
                              rmw_method=RmwMethod.OPTIMISTIC,
                              cache=CacheConfig(words_per_block=4,
                                                num_blocks=64))
        programs = lock_contention(config, rounds=4, think_cycles=3,
                                   lock_style=LockStyle.TAS)
        return Simulator(config, programs, fast_forward=False)

    def test_mid_run_snapshots_leave_the_result_unchanged(self):
        plain = self._sim().run()
        assert plain.rmw_aborts > 0
        sim = self._sim()
        horizon = sim.config.deadlock_horizon
        while not sim.done:
            sim.step()
            sim._watch_progress(horizon)
            before = sim.stats.to_payload()
            sim.diagnostics()
            assert sim.stats.to_payload() == before
        assert sim._finish().to_payload() == plain.to_payload()
