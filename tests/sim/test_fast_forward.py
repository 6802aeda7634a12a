"""Fast-forward (event-skip) execution: exact equivalence with stepping.

The contract is strong: for every protocol and workload, the fast-forward
engine must produce *bit-identical* statistics to the cycle-stepped
reference -- same cycle count, same per-transaction accounting, same
per-processor counter splits -- and raise deadlocks at the same cycle.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro import CacheConfig, SystemConfig, api, run_workload
from repro.cli import main
from repro.common.errors import DeadlockError
from repro.obs import Observability
from repro.processor import isa
from repro.processor.program import LockStyle, Program
from repro.protocols import PROTOCOLS
from repro.sim.engine import Simulator
from repro.workloads import lock_contention, producer_consumer
from repro.workloads.false_sharing import dubois_briggs_sharing
from tests.conftest import engines

WORKLOADS = {
    "lock_contention": lambda cfg, style: lock_contention(
        cfg, rounds=5, think_cycles=9, lock_style=style),
    "producer_consumer": lambda cfg, style: producer_consumer(
        cfg, items=5, think_cycles=7, lock_style=style),
    "false_sharing": lambda cfg, style: dubois_briggs_sharing(
        cfg, rounds=3, lock_style=style),
}


def _config(protocol: str, n: int = 4, **kwargs) -> SystemConfig:
    wpb = 1 if protocol == "rudolph-segall" else 4
    return SystemConfig(
        num_processors=n,
        protocol=protocol,
        strict_verify=protocol != "write-through",
        cache=CacheConfig(words_per_block=wpb, num_blocks=64),
        **kwargs,
    )


def _style(protocol: str) -> LockStyle:
    return (LockStyle.CACHE_LOCK if protocol == "bitar-despain"
            else LockStyle.TTAS)


def _snapshot(stats, n: int) -> dict:
    """Every statistic the simulator reports, field for field."""
    d = dict(stats.to_dict())
    d["txn_counts"] = dict(stats.txn_counts)
    d["txn_cycles"] = dict(stats.txn_cycles)
    d["procs"] = [dataclasses.asdict(stats.processor(i)) for i in range(n)]
    return d


class TestEquivalenceMatrix:
    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    @pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
    def test_identical_stats(self, protocol, workload):
        """Stats AND the observability layer's outputs -- the interval
        sample series, metric snapshot, and timeline slices -- must be
        bit-identical across the two engines."""
        config = _config(protocol)
        programs = WORKLOADS[workload](config, _style(protocol))
        stepped_obs = Observability(interval=64)
        fast_obs = Observability(interval=64)
        stepped = Simulator(config, programs, obs=stepped_obs,
                            fast_forward=False).run()
        fast = Simulator(config, programs, obs=fast_obs).run()
        assert _snapshot(stepped, 4) == _snapshot(fast, 4)
        assert stepped_obs.result() == fast_obs.result()
        assert len(stepped_obs.result().samples) > 0

    def test_checker_interval_equivalent(self):
        config = _config("bitar-despain")
        programs = WORKLOADS["lock_contention"](config, LockStyle.CACHE_LOCK)
        stepped, fast = engines(config, programs, check_interval=7)
        assert _snapshot(stepped, 4) == _snapshot(fast, 4)

    def test_max_cycles_and_resume_equivalent(self):
        config = _config("bitar-despain", n=2)
        programs = [Program([isa.compute(400), isa.read(0), isa.write(0)]),
                    Program([isa.read(64), isa.compute(600), isa.write(64)])]
        stepped = Simulator(config, programs, fast_forward=False)
        fast = Simulator(config, programs)
        stepped.run(max_cycles=250)
        fast.run(max_cycles=250)
        assert _snapshot(stepped.stats, 2) == _snapshot(fast.stats, 2)
        assert not fast.done
        stepped.run()
        fast.run()
        assert stepped.done and fast.done
        assert _snapshot(stepped.stats, 2) == _snapshot(fast.stats, 2)

    def test_switching_engines_mid_run(self):
        """One simulator alternating engines between run() calls (by
        assigning ``fast_forward``): the stepped engine takes over the
        fast-forward schedule and lazily settled counters, and hands its
        own back."""
        config = _config("bitar-despain")
        programs = WORKLOADS["lock_contention"](config, LockStyle.CACHE_LOCK)
        reference = Simulator(config, programs, fast_forward=False).run()
        mixed = Simulator(config, programs)
        for limit, fast_forward in ((60, True), (120, False),
                                    (180, True), (None, False)):
            mixed.fast_forward = fast_forward
            mixed.run(max_cycles=limit)
        assert mixed.done
        assert mixed.stats.to_payload() == reference.to_payload()


class TestEntryPoints:
    """Every user entry point runs the event-skip loop."""

    @pytest.mark.parametrize("entry,runs", [
        (lambda: api.simulate(processors=2), 1),
        (lambda: api.sweep(processors=(2, 3), jobs=1), 2),
        (lambda: run_workload(cfg := _config("bitar-despain", n=2),
                              lock_contention(cfg)), 1),
        (lambda: main(["run", "-n", "2"]), 1),
        (lambda: main(["sweep", "--processors", "2", "3"]), 2),
        (lambda: main(["scenario", "run", "lock-contention", "-n", "2"]), 1),
    ], ids=["simulate", "sweep", "run_workload", "cli-run", "cli-sweep",
            "cli-scenario-run"])
    def test_runs_fast_forward(self, entry, runs, monkeypatch, capsys):
        fast_runs = []
        original = Simulator._run_fast

        def counted(sim, max_cycles):
            fast_runs.append(max_cycles)
            return original(sim, max_cycles)

        monkeypatch.setattr(Simulator, "_run_fast", counted)
        entry()
        assert len(fast_runs) == runs

    def test_engine_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["run", "-n", "2", "--fast-forward"])
        assert info.value.code == 2


class TestDeadlockEquivalence:
    def _abba(self):
        config = SystemConfig(num_processors=2, deadlock_horizon=500)
        a, b = 0, 64
        return config, [
            Program([isa.lock(a), isa.compute(30), isa.lock(b),
                     isa.unlock(b), isa.unlock(a)]),
            Program([isa.lock(b), isa.compute(30), isa.lock(a),
                     isa.unlock(a), isa.unlock(b)]),
        ]

    def test_lock_deadlock_raises_at_same_cycle(self):
        config, programs = self._abba()
        cycles = []
        for fast_forward in (False, True):
            sim = Simulator(config, programs, fast_forward=fast_forward)
            with pytest.raises(DeadlockError):
                sim.run(max_cycles=200000)
            cycles.append(sim.stats.cycles)
        assert cycles[0] == cycles[1]

    def test_horizon_measured_in_simulated_cycles(self):
        """A bulk jump across the horizon must still trip the watchdog --
        the fast-forward engine may not sail past it in one skip."""
        config, programs = self._abba()
        sim = Simulator(config, programs, fast_forward=True)
        with pytest.raises(DeadlockError):
            sim.run(max_cycles=200000)
        # horizon + the two lock grants' aftermath, nowhere near max_cycles
        assert sim.stats.cycles < 2 * config.deadlock_horizon + 200

    def test_long_compute_is_not_deadlock(self):
        config = SystemConfig(num_processors=1, deadlock_horizon=100)
        stats = run_workload(config, [Program([isa.compute(5000)])])
        assert stats.processor(0).compute_cycles == 5000


class TestObsEquivalence:
    def test_per_cycle_obs_identical(self):
        """Stepped and fast-forward runs observed every cycle report the
        same samples, slices and causal spans."""
        config = _config("bitar-despain")
        programs = WORKLOADS["lock_contention"](config, LockStyle.CACHE_LOCK)
        results = []
        for fast_forward in (False, True):
            obs = Observability(interval=1, tracing=True)
            Simulator(config, programs, obs=obs,
                      fast_forward=fast_forward).run()
            results.append(obs.result().to_dict())
        stepped, fast = results
        assert stepped == fast
        assert len(fast["samples"]) == fast["cycles"]
        assert fast["slices"] and fast["spans"]
