"""The unified programmatic entry point: ``repro.api``.

Four verbs cover everything the CLI can do, each returning a typed
result object with a stamped ``to_dict()``:

* :func:`simulate` -- run one workload -> :class:`RunResult`;
* :func:`sweep` -- run a workload over processor counts ->
  :class:`SweepResult`;
* :func:`conform` -- the protocol conformance battery ->
  :class:`ConformanceReport`;
* :func:`check` -- the schedule-space model checker / fuzzer ->
  :class:`repro.mc.CheckReport`.

The CLI subcommands (``repro run``, ``repro sweep``, ``repro
conformance``, ``repro check``) are thin wrappers over these functions;
anything they print comes out of the result objects below.

Example::

    from repro import api

    result = api.simulate(protocol="bitar-despain",
                          workload="lock-contention", processors=8)
    print(result.stats.cycles, result.stats.bus_utilization)

    report = api.check(["bitar-despain"], mutations=True)
    assert report.ok
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.common.config import (CacheConfig, SystemConfig, TopologyConfig,
                                 WaitMode)
from repro.common.errors import ConfigError
from repro.common.schema import stamp
from repro.obs.core import ObsResult
from repro.processor.program import LockStyle, Program
from repro.sim.stats import SimStats
from repro.workloads.registry import (WORKLOADS, build_workload,
                                      default_lock_style,
                                      default_words_per_block,
                                      effective_lock_style)

if TYPE_CHECKING:
    from repro.mc.check import CheckReport

__all__ = [
    "RunResult",
    "SweepResult",
    "ConformanceReport",
    "CheckReport",
    "simulate",
    "sweep",
    "conform",
    "check",
    "lint",
    "attribute",
    "attribute_protocols",
    "WORKLOADS",
]


# -- result types -----------------------------------------------------------


@dataclass
class RunResult:
    """One simulated run: what was run, how, and what it produced."""

    protocol: str
    workload: str
    config: SystemConfig
    stats: SimStats
    #: Present when the run was observed (``sample_interval > 0``).
    obs: ObsResult | None = None
    #: Which interconnect fabric carried the run (a
    #: :data:`~repro.common.config.TOPOLOGY_KINDS` name; schema v5).
    topology: str = "snoop"
    #: The lock style the run's programs actually used (a
    #: :class:`~repro.processor.program.LockStyle` value), or ``None``
    #: for style-blind reference streams with no locks (schema v6).
    lock_style: str | None = None
    #: Sharer-set representation of the directory fabric (a
    #: :data:`~repro.directory_backend.representations.DIRECTORY_ENTRY_KINDS`
    #: name), or ``None`` on non-directory topologies (schema v7).
    directory_entry: str | None = None

    def to_dict(self) -> dict:
        return stamp({
            "kind": "run-result",
            "protocol": self.protocol,
            "workload": self.workload,
            "topology": self.topology,
            "directory_entry": self.directory_entry,
            "lock_style": self.lock_style,
            "config": self.config.to_dict(),
            "stats": self.stats.to_payload(),
            "obs": self.obs.to_dict() if self.obs is not None else None,
        })


@dataclass
class SweepResult:
    """A workload swept over processor counts.

    Under a ``keep_going`` policy the sweep is *partial-result
    tolerant*: a failed point contributes ``NaN`` series values and a
    ``None`` stats entry, and its verdict (status, attempts, error) is
    in :attr:`point_status`.  :attr:`resilience` carries the executor's
    retry/timeout/pool-restart counters (schema v2)."""

    protocol: str
    workload: str
    xs: list[int]
    #: Metric name -> one value per sweep point (NaN for failed points).
    series: dict[str, list[float]]
    #: Per-point stats; ``None`` for points that did not finish OK.
    stats: list[SimStats | None] = field(default_factory=list)
    #: Per-point observability, when sampled.
    observations: list[ObsResult] | None = None
    #: Per-point {index, x, status, attempts, error} verdicts.
    point_status: list[dict] = field(default_factory=list)
    #: Plain-data retry/timeout/restart counters.
    resilience: dict = field(default_factory=dict)
    #: Which interconnect fabric carried every point (schema v5).
    topology: str = "snoop"
    #: Directory sharer-set representation, or ``None`` off the
    #: directory fabric (schema v7).
    directory_entry: str | None = None

    @property
    def ok(self) -> bool:
        return all(p.get("status") == "ok" for p in self.point_status)

    def to_dict(self) -> dict:
        return stamp({
            "kind": "sweep-result",
            "protocol": self.protocol,
            "workload": self.workload,
            "topology": self.topology,
            "directory_entry": self.directory_entry,
            "xs": list(self.xs),
            "series": {name: list(values)
                       for name, values in self.series.items()},
            "points": [s.to_payload() if s is not None else None
                       for s in self.stats],
            "point_status": [dict(p) for p in self.point_status],
            "resilience": dict(self.resilience),
        })


@dataclass
class ConformanceReport:
    """Findings of the conformance battery for one protocol."""

    protocol: str
    serializing: bool
    findings: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings

    def to_dict(self) -> dict:
        return stamp({
            "kind": "conformance-report",
            "protocol": self.protocol,
            "serializing": self.serializing,
            "ok": self.ok,
            "findings": list(self.findings),
        })


# -- config assembly --------------------------------------------------------


def _build_config(
    protocol: str,
    *,
    processors: int = 4,
    topology: TopologyConfig | None = None,
    words_per_block: int | None = None,
    num_blocks: int = 64,
    work_while_waiting: bool = False,
    seed: int = 0,
) -> SystemConfig:
    """The CLI's defaulting rules, shared by every facade verb.
    ``topology=None`` is the paper's single snooping bus."""
    if words_per_block is None:
        words_per_block = default_words_per_block(protocol)
    return SystemConfig(
        num_processors=processors,
        protocol=protocol,
        topology=topology,
        strict_verify=protocol != "write-through",
        wait_mode=WaitMode.WORK if work_while_waiting else WaitMode.SPIN,
        cache=CacheConfig(words_per_block=words_per_block,
                          num_blocks=num_blocks),
        seed=seed,
    )


def _check_sample_interval(sample_interval: int) -> None:
    """``0`` runs unobserved; a positive interval samples every that
    many cycles; anything below 0 is an error, raised before any run."""
    if sample_interval < 0:
        raise ConfigError(
            f"sample_interval must be >= 0 (0 disables sampling), "
            f"got {sample_interval}")


# -- the verbs --------------------------------------------------------------


def simulate(
    protocol: str | None = None,
    workload: str = "lock-contention",
    *,
    processors: int | None = None,
    config: SystemConfig | None = None,
    programs: list[Program] | None = None,
    lock_style: LockStyle | None = None,
    topology: TopologyConfig | None = None,
    words_per_block: int | None = None,
    num_blocks: int | None = None,
    work_while_waiting: bool | None = None,
    seed: int | None = None,
    check_interval: int = 0,
    sample_interval: int = 0,
    tracing: bool = False,
    max_wall_seconds: float | None = None,
) -> RunResult:
    """Run one workload on one protocol, on the event-skip engine (its
    statistics equal the stepped reference's, see
    :class:`~repro.sim.engine.Simulator`).

    ``topology`` selects the interconnect fabric (``None``: the single
    snooping bus).  Without ``config``, the machine keywords
    (``protocol``, default ``bitar-despain``; ``processors``, default 4;
    ``topology``, ``words_per_block``, ``num_blocks``, default 64;
    ``work_while_waiting`` and ``seed``) assemble one with the CLI's
    defaulting rules (four-word blocks except Rudolph-Segall, strict
    verification except classic write-through, cache-lock style on the
    proposal).  ``config`` is the whole machine: passing any of those
    keywords with it raises :class:`~repro.common.errors.ConfigError`.
    ``programs`` replaces the named workload.
    ``sample_interval > 0`` attaches the observability layer and returns
    its result alongside the statistics.  ``tracing=True`` additionally
    records causal spans and the per-processor cycle attribution (see
    :mod:`repro.obs.tracing`); both land on ``result.obs``.
    ``max_wall_seconds`` arms the engine watchdog: a wedged run is
    aborted with a :class:`~repro.common.errors.WatchdogTimeout`
    carrying diagnostics.
    """
    from repro.sim.engine import run_workload

    _check_sample_interval(sample_interval)
    machine = {"processors": processors, "topology": topology,
               "words_per_block": words_per_block, "num_blocks": num_blocks,
               "work_while_waiting": work_while_waiting, "seed": seed}
    if config is None:
        config = _build_config(
            "bitar-despain" if protocol is None else protocol,
            **{k: v for k, v in machine.items() if v is not None})
    else:
        given = [k for k, v in {"protocol": protocol, **machine}.items()
                 if v is not None]
        if given:
            raise ConfigError(
                f"simulate: {', '.join(given)} cannot be combined with "
                f"config= (set it on the SystemConfig)")
    protocol = config.protocol
    style_label: str | None = None
    if programs is None:
        programs = build_workload(workload, config, lock_style)
        effective = effective_lock_style(workload, protocol, lock_style)
        style_label = effective.value if effective is not None else None
    elif lock_style is not None:
        style_label = lock_style.value
    obs = None
    if sample_interval or tracing:
        from repro.obs import Observability

        obs = Observability(interval=sample_interval or 100,
                            tracing=tracing)
    stats = run_workload(config, programs, check_interval=check_interval,
                         obs=obs, max_wall_seconds=max_wall_seconds)
    obs_result = obs.result() if obs is not None else None
    if obs_result is not None and obs_result.attribution is not None:
        # The observability layer cannot know the protocol name; stamp it
        # here so attribution reports are self-describing.
        obs_result.attribution["protocol"] = protocol
    assert config.topology is not None
    return RunResult(
        protocol=protocol,
        workload=workload,
        config=config,
        stats=stats,
        obs=obs_result,
        topology=config.topology.kind,
        lock_style=style_label,
        directory_entry=(config.topology.directory_entry
                         if config.topology.kind == "directory" else None),
    )


#: Metrics reported for every sweep point.
_SWEEP_METRICS = {
    "cycles": lambda s: s.cycles,
    "bus utilization": lambda s: s.bus_utilization,
    "failed lock attempts": lambda s: s.failed_lock_attempts,
}


def _sweep_point(n, *, protocol: str, workload: str, sample_interval: int = 0,
                 max_wall_seconds: float | None = None,
                 topology: TopologyConfig | None = None):
    """One sweep point; module-level so ``jobs > 1`` can pickle it (the
    workload is looked up by name inside the worker process).  With a
    ``sample_interval``, the point runs observed and returns an
    :class:`~repro.analysis.sweeps.ObservedPoint` whose plain-data
    ObsResult pickles back from the worker.  ``max_wall_seconds`` arms
    the engine watchdog inside the point, so a wedged simulation aborts
    with diagnostics even on the serial path."""
    from repro.sim.engine import run_workload

    config = _build_config(protocol, processors=int(n), topology=topology)
    programs = build_workload(workload, config)
    if not sample_interval:
        return run_workload(config, programs,
                            max_wall_seconds=max_wall_seconds)
    from repro.analysis.sweeps import ObservedPoint
    from repro.obs import Observability

    obs = Observability(interval=sample_interval)
    stats = run_workload(config, programs, obs=obs,
                         max_wall_seconds=max_wall_seconds)
    return ObservedPoint(stats=stats, obs=obs.result())


def _warm_sweep_worker(*, protocol: str) -> None:
    """Worker-process warmup: pay the heavy imports and build the
    protocol table's guard-bit rows once per worker instead of once per
    point (the rows are cached on the table object, which every point
    in the process then reuses)."""
    import repro.sim.engine  # noqa: F401 - heavy import, once per worker
    from repro.protocols import get_protocol

    get_protocol(protocol).table.guard_rows()


def sweep(
    protocol: str = "bitar-despain",
    workload: str = "lock-contention",
    *,
    processors: list[int] | tuple[int, ...] = (2, 4, 8),
    jobs: int = 1,
    sample_interval: int = 0,
    timeout: float | None = None,
    max_attempts: int = 2,
    keep_going: bool = False,
    faults: "str | object | None" = None,
    fault_seed: int = 0,
    topology: TopologyConfig | None = None,
    progress=None,
) -> SweepResult:
    """Run ``workload`` at each processor count (optionally in parallel
    worker processes) and collect the scaling series.  Every point runs
    on ``topology`` (``None``: the single snooping bus).

    Resilience knobs (see :mod:`repro.analysis.resilient`):
    ``timeout`` bounds each point's wall-clock seconds (enforced by the
    executor with ``jobs > 1`` and by the engine watchdog inside every
    point); ``max_attempts`` bounds retries; ``keep_going`` returns
    partial results (per-point statuses on the result) instead of
    raising on the first bad point; ``faults`` injects a chaos plan --
    either a :class:`~repro.faults.FaultPlan` or a spec string like
    ``"kill@1,hang@2"`` seeded by ``fault_seed``.

    ``progress`` is called as ``progress(done, total, statuses)`` each
    time a point reaches a terminal status -- the hook behind
    ``repro sweep --progress``.
    """
    import functools

    from repro.analysis.resilient import ExecutionPolicy
    from repro.analysis.sweeps import Sweep
    from repro.faults import FaultPlan

    _check_sample_interval(sample_interval)
    if isinstance(faults, str):
        faults = FaultPlan.parse(faults, seed=fault_seed)
    if topology is None:
        topology = TopologyConfig()
    for n in processors:
        # Every point's config is checked before any point runs.
        _build_config(protocol, processors=n, topology=topology)
    run = functools.partial(
        _sweep_point, protocol=protocol, workload=workload,
        sample_interval=sample_interval, max_wall_seconds=timeout,
        topology=topology,
    )
    policy = ExecutionPolicy(
        max_attempts=max_attempts,
        timeout=timeout,
        keep_going=keep_going,
        faults=faults,
        seed=fault_seed,
    )
    plan = Sweep(xs=list(processors), run=run, metrics=dict(_SWEEP_METRICS))
    series = plan.execute(jobs=jobs, policy=policy,
                          warmup=functools.partial(
                              _warm_sweep_worker, protocol=protocol),
                          progress=progress)
    return SweepResult(
        protocol=protocol,
        workload=workload,
        xs=list(processors),
        series={name: list(s.values) for name, s in series.items()},
        stats=list(plan.results),
        observations=(list(plan.observations) if sample_interval else None),
        point_status=[outcome.to_dict() for outcome in plan.outcomes],
        resilience=dict(plan.resilience),
        topology=topology.kind,
        directory_entry=(topology.directory_entry
                         if topology.kind == "directory" else None),
    )


def attribute(
    protocol: str | None = None,
    workload: str = "lock-contention",
    **kwargs,
):
    """Run one traced workload and return its cycle-attribution report.

    A convenience over ``simulate(..., tracing=True)``: every simulated
    cycle of every processor lands in exactly one of the eight
    attribution buckets (:data:`repro.obs.attribution.BUCKETS`), the
    per-processor sums are asserted against the engine's own counters,
    and the report carries the contended-block and lock-handoff-chain
    summary.  Returns an
    :class:`~repro.obs.attribution.AttributionReport`.
    """
    from repro.obs.attribution import AttributionReport

    result = simulate(protocol, workload, tracing=True, **kwargs)
    assert result.obs is not None and result.obs.attribution is not None
    return AttributionReport.from_dict(result.obs.attribution)


def attribute_protocols(
    protocols,
    workload: str = "lock-contention",
    **kwargs,
) -> dict:
    """Attribute the same workload under several protocols and return
    the stamped comparison payload (kind ``attribution-comparison``) --
    a causal explanation of the Table 1 cycle-count differences: which
    buckets (miss-wait, invalidation refetch, lock spin, ...) each
    protocol pays for the same work."""
    from repro.obs.attribution import compare_attributions

    reports = {name: attribute(name, workload, **kwargs)
               for name in protocols}
    return compare_attributions(reports)


def conform(protocol: str, *, serializing: bool | None = None) -> ConformanceReport:
    """Run the conformance battery; ``serializing`` defaults to False
    only for classic write-through (whose stale reads are expected)."""
    from repro.verify.conformance import check_conformance

    if serializing is None:
        serializing = protocol != "write-through"
    findings = check_conformance(protocol, serializing=serializing)
    return ConformanceReport(
        protocol=protocol,
        serializing=serializing,
        findings=[str(finding) for finding in findings],
    )


def check(protocols=None, **kwargs) -> CheckReport:
    """Model-check protocols: exhaustive exploration of the small
    scenarios, fuzzing of the rest, optional mutation testing.  See
    :func:`repro.mc.check.check` for the keyword reference."""
    from repro.mc.check import check as mc_check

    return mc_check(protocols, **kwargs)


def __getattr__(name: str):
    # The model checker loads with its first use, not with every run.
    if name == "CheckReport":
        from repro.mc.check import CheckReport

        return CheckReport
    raise AttributeError(f"module 'repro.api' has no attribute {name!r}")


def lint(protocols=None) -> dict:
    """Statically lint protocol transition tables.

    Runs the five rule families (completeness, determinism,
    reachability, write-serialization, lock-state sanity) over the named
    protocols (default: all ten) and returns the schema-stamped lint
    report -- the same payload as ``repro lint --json``.
    """
    from repro.lint import build_report, lint_protocol

    from repro.protocols import PROTOCOLS

    names = sorted(PROTOCOLS) if protocols is None else list(protocols)
    return build_report({name: lint_protocol(name) for name in names})
