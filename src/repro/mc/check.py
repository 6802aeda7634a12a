"""Top-level model-checking orchestration.

``check()`` is what ``repro check`` (CLI) and :func:`repro.api.check`
drive: for each requested protocol it exhaustively explores the small
scenarios, fuzzes the larger ones, optionally runs the mutation-testing
harness, and folds everything into one :class:`CheckReport` with every
counterexample shrunk, replayable, and (optionally) saved to disk.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from repro.common.schema import stamp
from repro.mc.counterexample import Counterexample, from_outcome
from repro.mc.explore import ExploreResult, explore
from repro.mc.fuzz import FuzzResult, fuzz
from repro.mc.mutations import MUTATIONS, Mutation, get_mutation
from repro.mc.scenarios import SCENARIOS, Scenario, get_scenario
from repro.mc.shrink import shrink
from repro.protocols import PROTOCOL_NAMES


@dataclass
class MutationResult:
    """Did the checker catch one seeded bug?"""

    mutation: str
    protocol: str
    scenario: str
    caught: bool
    counterexample: Counterexample | None = None
    schedules: int = 0
    shrink_runs: int = 0
    #: Static-linter complaints about the mutated table (empty for
    #: procedural mutations, which no table expresses).
    lint_findings: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "mutation": self.mutation,
            "protocol": self.protocol,
            "scenario": self.scenario,
            "caught": self.caught,
            "schedules": self.schedules,
            "shrink_runs": self.shrink_runs,
            "lint_findings": [f.to_dict() for f in self.lint_findings],
            "counterexample": (self.counterexample.to_dict()
                               if self.counterexample else None),
        }


@dataclass
class CheckReport:
    """Everything one checking session established."""

    protocols: list[str] = field(default_factory=list)
    explorations: list[ExploreResult] = field(default_factory=list)
    fuzz_sessions: list[FuzzResult] = field(default_factory=list)
    mutation_results: list[MutationResult] = field(default_factory=list)
    counterexamples: list[Counterexample] = field(default_factory=list)
    #: Paths of saved counterexample files (when a directory was given).
    saved_paths: list[str] = field(default_factory=list)
    elapsed_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        """Clean protocols *and* every seeded mutation caught."""
        return (
            all(r.ok for r in self.explorations)
            and all(r.ok for r in self.fuzz_sessions)
            and all(r.caught for r in self.mutation_results)
        )

    @property
    def schedules_explored(self) -> int:
        return sum(r.schedules for r in self.explorations) + sum(
            r.runs for r in self.fuzz_sessions
        )

    @property
    def budget_overshoot_seconds(self) -> float:
        """Total seconds fuzz sessions ran past their time budgets
        (each session's watchdog catches its own overshoot; this sums
        what slipped through before the aborts landed)."""
        return sum(r.budget_overshoot_seconds for r in self.fuzz_sessions)

    def to_dict(self) -> dict:
        return stamp({
            "kind": "check-report",
            "ok": self.ok,
            "protocols": list(self.protocols),
            "schedules_explored": self.schedules_explored,
            "elapsed_seconds": round(self.elapsed_seconds, 3),
            "budget_overshoot_seconds": round(
                self.budget_overshoot_seconds, 3),
            "explorations": [r.to_dict() for r in self.explorations],
            "fuzz_sessions": [r.to_dict() for r in self.fuzz_sessions],
            "mutation_results": [r.to_dict() for r in self.mutation_results],
            "counterexamples": [c.to_dict() for c in self.counterexamples],
            "saved_paths": list(self.saved_paths),
        })


def _resolve_scenarios(names: Sequence[str] | None) -> list[Scenario]:
    if names is None:
        return list(SCENARIOS.values())
    return [get_scenario(name) for name in names]


def _shrunk_counterexample(scenario: Scenario, protocol: str,
                           schedule: list[int], *, mutation=None,
                           seed: int | None = None) -> tuple[Counterexample, int]:
    result = shrink(scenario, protocol, schedule, mutation=mutation)
    return (
        from_outcome(scenario, protocol, result.schedule, result.outcome,
                     mutation=mutation.name if mutation else None, seed=seed),
        result.runs,
    )


def test_mutation(mutation: Mutation, *, max_schedules: int = 2_000,
                  shrink_failures: bool = True) -> MutationResult:
    """Seed one bug and check that it is caught.

    Table-row mutations first go through the static protocol linter
    (``repro lint``); every mutation is then model-checked so a concrete
    counterexample backs the catch.  ``caught`` means *either* defense
    fired.
    """
    from repro.lint import lint_table  # local import: lint is optional here

    scenario = get_scenario(mutation.scenario)
    lint_findings = (lint_table(mutation.table_builder())
                     if mutation.table_builder is not None else [])
    exploration = explore(scenario, mutation.protocol, mutation=mutation,
                          max_schedules=max_schedules)
    result = MutationResult(
        mutation=mutation.name,
        protocol=mutation.protocol,
        scenario=mutation.scenario,
        caught=bool(lint_findings) or exploration.failure is not None,
        schedules=exploration.schedules,
        lint_findings=lint_findings,
    )
    if exploration.failure is not None and exploration.failing_schedule is not None:
        if shrink_failures:
            result.counterexample, result.shrink_runs = _shrunk_counterexample(
                scenario, mutation.protocol, exploration.failing_schedule,
                mutation=mutation,
            )
        else:
            result.counterexample = Counterexample(
                protocol=mutation.protocol,
                scenario=mutation.scenario,
                schedule=exploration.failing_schedule,
                failure=exploration.failure,
                mutation=mutation.name,
            )
    return result


def check(
    protocols: Iterable[str] | None = None,
    *,
    scenarios: Sequence[str] | None = None,
    exhaustive: bool = True,
    max_schedules: int = 20_000,
    fuzz_seeds: int = 32,
    fuzz_budget: float | None = None,
    mutations: Iterable[str] | bool = False,
    counterexample_dir: str | Path | None = None,
) -> CheckReport:
    """Model-check ``protocols`` (default: all ten).

    Scenarios marked exhaustive are fully explored (state-deduped DFS
    bounded by ``max_schedules``); the rest are fuzzed with
    ``fuzz_seeds`` seeded random schedules, collectively capped by
    ``fuzz_budget`` seconds when given.  ``mutations`` selects seeded
    bugs to run the mutation-testing harness on (``True`` = all).
    Counterexamples are shrunk and, when ``counterexample_dir`` is
    given, saved as replayable JSON.
    """
    started = time.monotonic()
    report = CheckReport(protocols=sorted(protocols)
                         if protocols is not None else sorted(PROTOCOL_NAMES))
    scenario_list = _resolve_scenarios(scenarios)
    if mutations is True:
        selected = list(MUTATIONS.values())
    else:
        selected = [get_mutation(name) for name in mutations or ()]
    deadline = (started + fuzz_budget) if fuzz_budget is not None else None

    fuzz_pairs = [
        (scenario, protocol)
        for protocol in report.protocols
        for scenario in scenario_list
        if not (scenario.exhaustive and exhaustive)
    ]

    for protocol in report.protocols:
        for scenario in scenario_list:
            if scenario.exhaustive and exhaustive:
                exploration = explore(scenario, protocol,
                                      max_schedules=max_schedules)
                report.explorations.append(exploration)
                if (exploration.failure is not None
                        and exploration.failing_schedule is not None):
                    ce, _ = _shrunk_counterexample(
                        scenario, protocol, exploration.failing_schedule)
                    report.counterexamples.append(ce)

    for index, (scenario, protocol) in enumerate(fuzz_pairs):
        time_left = None
        if deadline is not None:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            time_left = remaining / max(1, len(fuzz_pairs) - index)
        session = fuzz(scenario, protocol, seeds=range(fuzz_seeds),
                       time_budget=time_left)
        report.fuzz_sessions.append(session)
        if session.counterexample is not None:
            report.counterexamples.append(session.counterexample)

    for mutation in selected:
        result = test_mutation(mutation)
        report.mutation_results.append(result)
        if result.counterexample is not None:
            report.counterexamples.append(result.counterexample)

    if counterexample_dir is not None and report.counterexamples:
        directory = Path(counterexample_dir)
        directory.mkdir(parents=True, exist_ok=True)
        for ce in report.counterexamples:
            tag = f"-{ce.mutation}" if ce.mutation else ""
            path = directory / f"{ce.protocol}-{ce.scenario}{tag}.json"
            ce.save(path)
            report.saved_paths.append(str(path))

    report.elapsed_seconds = time.monotonic() - started
    return report
