"""Workload definitions, correctness checks and timing for the repo benchmark.

Every workload is one single-process simulation of the ``bitar-despain``
proposal.  The benchmark's seed is the only source of randomness: the
scale-probe streams derive from it, and lock-contention has no random
input at all.  ``README.md`` beside this file says why each workload
exists.

The caller puts the repository's ``src`` directory on ``sys.path``
before importing this module.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import resource
import time
from dataclasses import dataclass, field

from repro import CacheConfig, SystemConfig
from repro.common.config import TopologyConfig
from repro.obs import Observability
from repro.processor.isa import OpKind
from repro.sim.engine import Simulator
from repro.workloads import lock_contention, scale_probe

PROTOCOL = "bitar-despain"
#: Pinned so that ``REPRO_DISPATCH`` in the environment cannot change
#: what is measured; compiled is the CLI default.
DISPATCH = "compiled"
#: ``repro run --attribution`` attaches observability with the default
#: sampling interval and span tracing on.
ATTRIBUTION_INTERVAL = 100


@dataclass(frozen=True)
class Workload:
    """One benchmark input: a machine, a generator and an engine."""

    name: str
    processors: int
    topology: TopologyConfig
    generator: str
    params: dict = field(default_factory=dict)
    fast_forward: bool = False
    attributed: bool = False
    #: Generator overrides for the engine gate's reduced instance.
    gate_params: dict = field(default_factory=dict)
    #: Input streams the timed repetitions take in turn (see
    #: :func:`stream_seeds`).
    streams: int = 1


_SNOOP = TopologyConfig(kind="snoop")
#: Dir-N-B with 16 pointers on four home banks: the representation
#: regime of ``benchmarks/bench_engine.py``, where pointer overflow
#: happens but stays rare.
_DIRECTORY = TopologyConfig(kind="directory", directory_banks=4,
                            directory_entry="limited-pointer",
                            directory_pointers=16)
_LOCK_PARAMS = dict(rounds=64)
#: Six references per processor keep a repetition near one second on a
#: quiet host, so that a run holds several (see README.md).
_PROBE_PARAMS = dict(total_references=1536)
#: Streams per scale-probe run.  One stream's run time and cycle count
#: depend on its seed, by about 14% and 6% between the quartiles on
#: ``dir256-write``: a property of the stream that more references do
#: not average out.  Four streams per run average it (README.md).
_PROBE_STREAMS = 4
#: Processors in the engine gate's reduced instance.
GATE_PROCESSORS = 16

WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload("lock16", 16, _SNOOP, "lock_contention", _LOCK_PARAMS,
             gate_params=dict(rounds=4)),
    Workload("lock16-attributed", 16, _SNOOP, "lock_contention",
             _LOCK_PARAMS, attributed=True, gate_params=dict(rounds=4)),
    Workload("snoop256", 256, _SNOOP, "scale_probe", _PROBE_PARAMS,
             fast_forward=True, gate_params=dict(total_references=256),
             streams=_PROBE_STREAMS),
    Workload("dir256-write", 256, _DIRECTORY, "scale_probe",
             dict(_PROBE_PARAMS, write_fraction=0.6, shared_blocks=64,
                  zipf_skew=0.2),
             fast_forward=True, gate_params=dict(total_references=256),
             streams=_PROBE_STREAMS),
)}


def stream_seeds(workload: Workload, seed: int) -> list[int]:
    """Generator seeds of the streams one benchmark seed stands for.

    The timed repetitions take the streams in turn and the simulated
    metrics average over them; the engine gate, the set-up samples and
    the traced run use the first.  Streams of different benchmark seeds
    never overlap."""
    return [seed * workload.streams + k for k in range(workload.streams)]


class CheckFailed(Exception):
    """A simulation finished but its output is wrong."""


def config_for(workload: Workload, processors: int | None = None
               ) -> SystemConfig:
    return SystemConfig(
        num_processors=processors or workload.processors,
        protocol=PROTOCOL,
        topology=workload.topology,
        cache=CacheConfig(words_per_block=4, num_blocks=64),
    )


def build_programs(workload: Workload, config: SystemConfig, seed: int,
                   *, reduced: bool = False) -> list:
    params = dict(workload.params)
    if reduced:
        params.update(workload.gate_params)
    if workload.generator == "lock_contention":
        return lock_contention(config, **params)
    return scale_probe(config, seed=seed, **params)


def construct(workload: Workload, config: SystemConfig, programs: list,
              *, check_interval: int = 0) -> Simulator:
    obs = (Observability(interval=ATTRIBUTION_INTERVAL, tracing=True)
           if workload.attributed else None)
    return Simulator(config, programs, fast_forward=workload.fast_forward,
                     check_interval=check_interval, obs=obs,
                     dispatch=DISPATCH)


def setup(workload: Workload, seed: int) -> Simulator:
    """Everything a user pays before ``Simulator.run``: programs,
    fabric, caches and protocol tables."""
    config = config_for(workload)
    return construct(workload, config, build_programs(workload, config, seed))


def transactions(stats) -> int:
    return sum(stats.txn_counts.values())


def messages(sim: Simulator, delivered: int) -> int:
    """Interconnect messages: point-to-point tallies on the directory,
    the ``delivered`` snoops otherwise."""
    tallies = getattr(sim.bus, "message_tallies", None)
    if tallies is not None:
        return sum(tallies().values())
    return delivered


def finish(sim: Simulator, stats) -> dict:
    """Check one finished simulation and return its output payload.

    Raises :class:`CheckFailed` when a processor did not run its whole
    program, a read was stale, or a lock round went missing; the
    simulator itself raises on oracle, invariant, deadlock and
    attribution errors (``obs.result()`` checks the attribution
    identities)."""
    for proc in sim.processors:
        expected = len(proc.program.ops)
        if proc.stats.ops_completed != expected:
            raise CheckFailed(f"processor {proc.pid} completed "
                              f"{proc.stats.ops_completed} of {expected} ops")
    if stats.stale_reads or stats.coherence_violations:
        raise CheckFailed(f"stale={stats.stale_reads} "
                          f"violations={stats.coherence_violations}")
    locks = sum(op.kind is OpKind.LOCK for p in sim.processors
                for op in p.program.ops)
    if stats.lock_acquisitions != locks:
        raise CheckFailed(f"{stats.lock_acquisitions} lock acquisitions "
                          f"for {locks} lock ops")
    # Racing unsynchronized writes may serialize against issue order;
    # under a lock they cannot.
    if locks and stats.lost_updates:
        raise CheckFailed(f"{stats.lost_updates} lost updates under locks")
    payload = stats.to_payload()
    if sim.obs.active:
        payload["attribution"] = sim.obs.result().attribution
    # Round-trip through JSON so payloads compare as plain data.
    return json.loads(json.dumps(payload, sort_keys=True))


def engine_gate(workload: Workload, seed: int) -> dict:
    """Run the reduced instance stepped (invariants checked every cycle)
    and fast-forward; raise :class:`CheckFailed` unless the outputs
    are identical."""
    config = config_for(workload, GATE_PROCESSORS)
    outputs = []
    for fast_forward, check_interval in ((False, 1), (True, 0)):
        programs = build_programs(workload, config, seed, reduced=True)
        sim = construct(dataclasses.replace(workload,
                                            fast_forward=fast_forward),
                        config, programs, check_interval=check_interval)
        outputs.append(finish(sim, sim.run()))
    if outputs[0] != outputs[1]:
        raise CheckFailed("stepped and fast-forward engines disagree "
                          "on the reduced instance")
    return outputs[0]


def timed_run(workload: Workload, seed: int) -> tuple[float, dict]:
    """Set up untimed, then time ``Simulator.run`` alone.

    Returns ``(run_s, payload)``."""
    sim = setup(workload, seed)
    gc.collect()
    start = time.perf_counter()
    stats = sim.run()
    run_s = time.perf_counter() - start
    return run_s, finish(sim, stats)


def counted_run(workload: Workload, seed: int) -> tuple[dict, dict]:
    """Run once untimed, counting the snoops delivered to every bus
    port, and return ``(payload, simulated)``: the output payload and
    the cycle and message figures of the run."""
    sim = setup(workload, seed)
    delivered = [0]
    for port in [*sim.caches, *([sim.io] if sim.io else [])]:
        port.snoop = _counting(port.snoop, delivered)
    stats = sim.run()
    payload = finish(sim, stats)
    simulated = {"sim_cycles": stats.cycles,
                 "transactions": transactions(stats),
                 "messages": messages(sim, delivered[0])}
    return payload, simulated


def _counting(snoop, delivered: list):
    def counted(txn):
        delivered[0] += 1
        return snoop(txn)
    return counted


def peak_rss_mb() -> float:
    """This process's resident-set high-water mark (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


#: :func:`host_probe`'s time on a 2-vCPU Xeon Firecracker VM in a quiet
#: spell: the host speed that normalised times are quoted at.
PROBE_REFERENCE_S = 0.055


def host_probe() -> float:
    """Seconds for a fixed pure-Python task that, like the simulator,
    allocates and walks many small objects.  Timings are divided by the
    probes taken next to them, so that a host slowdown, which stretches
    both alike, cancels (README.md).

    The collector is off while it runs: otherwise its allocations would
    trigger collections whose cost grows with whatever the process
    holds, and the probe would time the heap rather than the host.  The
    table stays small so that the probe cannot raise ``peak_rss_mb``."""
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(40):
            table = {i: (i, (i * 31) & 0xFFFF) for i in range(10_000)}
            sum(pair[1] for pair in table.values())
        return time.perf_counter() - start
    finally:
        gc.enable()
