"""Single-schedule execution for the model checker.

One call = one complete simulated run of a scenario under one schedule,
with the full verification battery armed: invariants checked every
cycle, the strict write oracle, the deadlock watchdog, and the
scenario's final-state expectation.  Any violation is converted into a
:class:`Failure` value rather than propagating, so the explorer and
fuzzer can treat runs uniformly.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass

from repro.common.errors import (
    CoherenceViolation,
    DeadlockError,
    ProgramError,
    ProtocolError,
    SerializationViolation,
)
from repro.mc.scenarios import ExpectationError, Scenario
from repro.sim.engine import Simulator
from repro.sim.schedule import (
    Choice,
    RecordingScheduler,
    ReplayScheduler,
    Scheduler,
)

#: Violations the checker reports as counterexamples (anything else is a
#: genuine crash and propagates).
FAILURE_EXCEPTIONS = (
    CoherenceViolation,
    SerializationViolation,
    DeadlockError,
    ProtocolError,
    ProgramError,
    ExpectationError,
)

#: Hard per-run cycle bound -- generous for scenarios that finish in a
#: few hundred cycles, but it converts any livelock the progress
#: watchdog cannot see (e.g. a spinning reader that keeps hitting) into
#: a reported failure.
DEFAULT_MAX_CYCLES = 20_000


class PruneRun(Exception):
    """Raised by an observer to cut a run short (state already seen)."""


@dataclass(frozen=True)
class Failure:
    """One detected violation, in a JSON-friendly shape."""

    kind: str
    message: str

    def to_dict(self) -> dict:
        return {"kind": self.kind, "message": self.message}

    @staticmethod
    def from_dict(data: dict) -> "Failure":
        return Failure(kind=data["kind"], message=data["message"])


@dataclass
class ScheduleOutcome:
    """Everything one scheduled run produced."""

    failure: Failure | None
    #: Full decision record (candidates + index per choice point).
    choices: list[Choice]
    cycles: int
    pruned: bool = False
    #: The finished simulator (for expectations/diagnostics); only kept
    #: when the caller asked for it.
    sim: Simulator | None = None

    @property
    def schedule(self) -> list[int]:
        return [choice.chosen for choice in self.choices]


def build_sim(scenario: Scenario, protocol: str, scheduler: Scheduler,
              **sim_kwargs) -> Simulator:
    """Fresh fully-instrumented simulator for one scheduled run, on the
    stepped engine: every cycle is a choice point."""
    config, programs = scenario.build(protocol)
    return Simulator(config, programs, check_interval=1,
                     fast_forward=False, scheduler=scheduler, **sim_kwargs)


def run_schedule(
    scenario: Scenario,
    protocol: str,
    prefix=(),
    *,
    scheduler: Scheduler | None = None,
    mutation=None,
    observer=None,
    max_cycles: int = DEFAULT_MAX_CYCLES,
    keep_sim: bool = False,
    obs=None,
    max_wall_seconds: float | None = None,
) -> ScheduleOutcome:
    """Run ``scenario`` under one schedule and classify the outcome.

    ``prefix`` is a choice-index sequence replayed from the start; past
    its end every choice defaults to index 0 (the engine's legacy
    tie-break).  Alternatively pass ``scheduler`` (e.g. a
    :class:`~repro.sim.schedule.RandomScheduler`) to drive the choices.
    Either way the actual decisions are recorded and returned.

    ``observer(sim, recorder)`` runs after every cycle and may raise
    :class:`PruneRun` to abandon the run (the explorer's state-dedup).
    ``mutation`` is a :class:`~repro.mc.mutations.Mutation` applied for
    the duration of the run.

    ``max_wall_seconds`` arms the engine watchdog for this run; a
    wedged simulation raises
    :class:`~repro.common.errors.WatchdogTimeout` (which propagates --
    exceeding a *checker* budget is not a protocol failure), letting
    the fuzzer enforce its time budget mid-run instead of only between
    runs.
    """
    recorder = RecordingScheduler(
        scheduler if scheduler is not None else ReplayScheduler(prefix)
    )
    patch = mutation.apply() if mutation is not None else nullcontext()
    with patch:
        sim = build_sim(scenario, protocol, recorder,
                        **({"obs": obs} if obs is not None else {}))
        sim.arm_watchdog(max_wall_seconds)
        watchdog_countdown = 0
        horizon = sim.config.deadlock_horizon
        failure: Failure | None = None
        pruned = False
        try:
            while not sim.done:
                if sim.stats.cycles >= max_cycles:
                    raise DeadlockError(
                        f"scenario {scenario.name!r} did not complete "
                        f"within {max_cycles} cycles"
                    )
                if max_wall_seconds is not None:
                    if watchdog_countdown == 0:
                        watchdog_countdown = 256
                        sim.check_watchdog()
                    watchdog_countdown -= 1
                sim.step()
                sim._watch_progress(horizon)
                if observer is not None:
                    observer(sim, recorder)
            sim._finish()
            if scenario.expect is not None:
                scenario.expect(sim)
        except PruneRun:
            pruned = True
        except FAILURE_EXCEPTIONS as exc:
            failure = Failure(kind=type(exc).__name__, message=str(exc))
    return ScheduleOutcome(
        failure=failure,
        choices=list(recorder.choices),
        cycles=sim.stats.cycles,
        pruned=pruned,
        sim=sim if keep_sim else None,
    )
