"""Engine benchmark: stepped vs fast-forward execution, sweep scaling.

Unlike the figure benches, this one measures the *simulator*, not the
simulated system: wall-clock for the cycle-stepped reference engine vs
the event-skip engine on the same coarse-grain locking workload (short
critical sections separated by long parallel compute, the regime the
paper's Section F cost model assumes), plus a raw table-lookup
microbenchmark and process-parallel sweep scaling.  Both engines must
produce identical statistics; the timings land in
``BENCH_engine.json`` for
``scripts/perf_guard.py``, including the observability hook-layer
overhead section (null observer vs tracing off vs tracing on).
"""

from __future__ import annotations

import dataclasses
import json
import os
import time
import warnings
from pathlib import Path

from repro import CacheConfig, SystemConfig
from repro.analysis.report import render_table
from repro.analysis.sweeps import Sweep
from repro.common.config import TopologyConfig
from repro.sim.engine import Simulator
from repro.workloads import lock_contention, scale_probe

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_engine.json"

#: bench_locking-scale contention, coarse grain: 16 processors handing
#: one lock around between 4000-cycle think sections.
ENGINE_PARAMS = dict(processors=16, rounds=40, think_cycles=4000)
SWEEP_JOBS = 4
SWEEP_POINTS = [2, 4, 6, 8, 10, 12, 14, 16]
#: Table-lookup microbenchmark: rounds over every (state, event, guard)
#: a protocol's rules actually exercise.
LOOKUP_PROTOCOL = "bitar-despain"
LOOKUP_ROUNDS = 2000
#: Fabric-scalability comparison: machine sizes measured for every
#: fabric kind on the constant-total-work ``scale-probe`` workload.
TOPOLOGY_SCALES = (64, 256, 1024)
TOPOLOGY_FABRICS = ("snoop", "clustered", "directory")
#: The perf-guard ratio compares a small broadcast machine against a
#: large directory machine: simulator throughput at these two sizes.
GUARD_SNOOP_N = 16
GUARD_DIRECTORY_N = 256
#: Sharer-set representations measured on the directory fabric.
REPRESENTATIONS = ("full-bit-vector", "limited-pointer", "coarse-vector")
#: Dir-N-B pointer provisioning for the representation probe.
REPRESENTATION_POINTERS = 16
#: The representation probe runs scale-probe in the limited-pointer
#: design regime: write-heavy, low-skew sharing keeps the typical
#: sharer degree near the pointer count, so pointer overflow happens
#: (the broadcast path is exercised) but stays rare.  The stock
#: scale-probe mix accumulates up to ~80 sharers on hot blocks between
#: writes, which would force *every* representation but the full
#: vector into permanent broadcast and make the traffic guard
#: meaningless.
REPRESENTATION_WORKLOAD = dict(write_fraction=0.6, shared_blocks=64,
                               zipf_skew=0.2)


def _config(n: int) -> SystemConfig:
    return SystemConfig(
        num_processors=n,
        protocol="bitar-despain",
        cache=CacheConfig(words_per_block=4, num_blocks=128),
    )


def _snapshot(stats, n: int) -> dict:
    d = dict(stats.to_dict())
    d["txn_counts"] = dict(stats.txn_counts)
    d["txn_cycles"] = dict(stats.txn_cycles)
    d["procs"] = [dataclasses.asdict(stats.processor(i)) for i in range(n)]
    return d


def _time_run(config, programs, fast_forward: bool, repeats: int = 3):
    """Best-of-``repeats`` wall clock and the final stats."""
    best = None
    stats = None
    for _ in range(repeats):
        sim = Simulator(config, programs, fast_forward=fast_forward)
        t0 = time.perf_counter()
        stats = sim.run()
        elapsed = time.perf_counter() - t0
        if best is None or elapsed < best:
            best = elapsed
    return best, stats


def run_engine_comparison() -> dict:
    """Time stepped vs fast-forward; both runs must produce identical
    statistics."""
    n = ENGINE_PARAMS["processors"]
    config = _config(n)
    programs = lock_contention(
        config,
        rounds=ENGINE_PARAMS["rounds"],
        think_cycles=ENGINE_PARAMS["think_cycles"],
    )
    stepped_s, stepped_stats = _time_run(config, programs,
                                         fast_forward=False)
    ff_s, ff_stats = _time_run(config, programs, fast_forward=True)
    assert _snapshot(ff_stats, n) == _snapshot(stepped_stats, n), (
        "fast-forward diverged from the stepped engine")
    cycles = stepped_stats.cycles
    return {
        **ENGINE_PARAMS,
        "protocol": "bitar-despain",
        "workload": "lock_contention",
        "cycles": cycles,
        "stepped_seconds": stepped_s,
        "stepped_cycles_per_sec": cycles / stepped_s,
        "fast_forward_seconds": ff_s,
        "fast_forward_cycles_per_sec": cycles / ff_s,
        "speedup": stepped_s / ff_s,
    }


def run_lookup_microbench() -> dict:
    """Raw transition-lookup throughput: the reference guard scan
    (``TransitionTable.lookup``) vs the guard-bit row probe every run
    uses (``lookup_bits``), over every (state, event, guard) context
    the protocol's own rules exercise."""
    from repro.protocols import PROTOCOLS
    from repro.protocols.table import GUARD_FAMILIES, bit_families_for

    table = PROTOCOLS[LOOKUP_PROTOCOL].table
    vocab = table.vocabulary
    # One probe per rule: complete its (possibly partial) guard into a
    # full context by defaulting every unmentioned family to its
    # negative atom, so both paths resolve a defined transition.
    probes = []
    seen = set()
    for rule in table.rules:
        bits = 0
        for i, family in enumerate(bit_families_for(rule.event)):
            if GUARD_FAMILIES[family][0] in rule.guard:
                bits |= 1 << i
        key = (rule.state, rule.event, bits)
        if key in seen:
            continue
        seen.add(key)
        probes.append((rule.state, rule.event,
                       vocab.context_of_bits(rule.event, bits), bits))

    for state, event, ctx, bits in probes:
        assert table.lookup(state, event, ctx) is table.lookup_bits(
            state, event, bits), "scan and rows disagree on a probe"

    t0 = time.perf_counter()
    for _ in range(LOOKUP_ROUNDS):
        for state, event, ctx, _ in probes:
            table.lookup(state, event, ctx)
    scan_s = time.perf_counter() - t0

    lookup_bits = table.lookup_bits
    t0 = time.perf_counter()
    for _ in range(LOOKUP_ROUNDS):
        for state, event, _, bits in probes:
            lookup_bits(state, event, bits)
    bits_s = time.perf_counter() - t0

    lookups = LOOKUP_ROUNDS * len(probes)
    return {
        "protocol": LOOKUP_PROTOCOL,
        "probes": len(probes),
        "lookups": lookups,
        "scan_seconds": scan_s,
        "scan_lookups_per_sec": lookups / scan_s,
        "bits_seconds": bits_s,
        "bits_lookups_per_sec": lookups / bits_s,
        "speedup": scan_s / bits_s,
    }


def run_obs_overhead() -> dict:
    """Hook-layer cost on the stepped engine: the shared ``NULL_OBS``
    null object (the recorded baseline) vs an attached zero-sample
    ``Observability`` with tracing off (every ``if obs.active`` guard
    taken, hooks running, no spans) vs full causal tracing.  All three
    runs must produce identical statistics."""
    from repro.obs import Observability

    n = ENGINE_PARAMS["processors"]
    config = _config(n)
    programs = lock_contention(
        config,
        rounds=ENGINE_PARAMS["rounds"],
        think_cycles=ENGINE_PARAMS["think_cycles"],
    )
    # A sampling interval beyond the run length isolates the hook cost
    # from the sampler's own (intentional, interval-proportional) work.
    huge = 1 << 30
    # The three modes are interleaved within each repeat round -- an
    # overhead ratio built from separately-phased timings would fold
    # host clock drift between phases straight into the verdict.
    factories = {
        "null": lambda: None,
        "off": lambda: Observability(interval=huge),
        "on": lambda: Observability(interval=huge, tracing=True),
    }
    # Per-round jitter on a loaded host dwarfs the real hook cost, so
    # the ratio is built from best-of-7 per mode -- the minimum is the
    # least-disturbed sample of a deterministic workload.
    best: dict[str, float] = {}
    stats_by: dict[str, object] = {}
    for _ in range(7):
        for mode, factory in factories.items():
            sim = Simulator(config, programs, fast_forward=False,
                            obs=factory())
            t0 = time.perf_counter()
            stats_by[mode] = sim.run()
            elapsed = time.perf_counter() - t0
            if mode not in best or elapsed < best[mode]:
                best[mode] = elapsed
    null_s, off_s, on_s = best["null"], best["off"], best["on"]
    reference = _snapshot(stats_by["null"], n)
    assert _snapshot(stats_by["off"], n) == reference, \
        "observer changed stats"
    assert _snapshot(stats_by["on"], n) == reference, \
        "tracing changed stats"
    return {
        **ENGINE_PARAMS,
        "protocol": "bitar-despain",
        "workload": "lock_contention",
        "cycles": stats_by["null"].cycles,
        "null_seconds": null_s,
        "tracing_off_seconds": off_s,
        "tracing_on_seconds": on_s,
        "overhead_disabled": off_s / null_s - 1.0,
        "overhead_tracing": on_s / null_s - 1.0,
    }


def _topology_config(n: int, kind: str) -> SystemConfig:
    topo = {
        "snoop": TopologyConfig(),
        "clustered": TopologyConfig(kind="clustered",
                                    clusters=max(2, min(8, n // 32))),
        "directory": TopologyConfig(kind="directory", directory_banks=4),
    }[kind]
    return SystemConfig(
        num_processors=n,
        protocol="bitar-despain",
        cache=CacheConfig(words_per_block=4, num_blocks=64),
        topology=topo,
    )


def _probe_fabric(kind: str, n: int) -> dict:
    """One fabric at one machine size: wall clock, simulated cycles, and
    coherence traffic per bus transaction."""
    config = _topology_config(n, kind)
    programs = scale_probe(config)
    sim = Simulator(config, programs, fast_forward=True)
    t0 = time.perf_counter()
    stats = sim.run()
    elapsed = time.perf_counter() - t0
    txns = sum(stats.txn_counts.values())
    bus = sim.bus
    if kind == "snoop":
        # A broadcast reaches every other port, always.
        msgs = txns * (len(bus._ports) - 1)
    elif kind == "clustered":
        delivered = (txns * (len(bus.buses[0]._ports) - 1)
                     - bus.filtered_snoops)
        msgs = delivered + bus.link_messages
    else:
        msgs = sum(bus.message_tallies().values())
    return {
        "seconds": elapsed,
        "cycles": stats.cycles,
        "cycles_per_sec": stats.cycles / elapsed,
        "txns": txns,
        "msgs_per_txn": msgs / max(1, txns),
    }


def _probe_representation(entry: str, n: int) -> dict:
    """One sharer-set representation at one machine size: directory
    traffic per transaction and directory storage per block."""
    from repro.directory_backend.representations import bits_per_block

    topo = TopologyConfig(kind="directory", directory_banks=4,
                          directory_entry=entry,
                          directory_pointers=REPRESENTATION_POINTERS)
    config = SystemConfig(
        num_processors=n,
        protocol="bitar-despain",
        cache=CacheConfig(words_per_block=4, num_blocks=64),
        topology=topo,
    )
    programs = scale_probe(config, **REPRESENTATION_WORKLOAD)
    sim = Simulator(config, programs, fast_forward=True)
    t0 = time.perf_counter()
    stats = sim.run()
    elapsed = time.perf_counter() - t0
    txns = sum(stats.txn_counts.values())
    msgs = sum(sim.bus.message_tallies().values())
    return {
        "seconds": elapsed,
        "cycles": stats.cycles,
        "txns": txns,
        "msgs_per_txn": msgs / max(1, txns),
        "bits_per_block": bits_per_block(topo, n),
    }


def run_representation_comparison() -> dict:
    """Measure every sharer-set representation at every scale.

    The tension the section records: the full bit vector moves the
    fewest messages but its entry grows linearly with the machine;
    Dir-N-B limited pointers hold storage near-logarithmic but fall off
    a broadcast cliff once typical sharer degree passes the pointer
    count; the coarse vector caps storage at a fixed region count and
    pays a constant over-probe factor instead.  The guard ratio pins
    limited-pointer traffic to the full vector's at the scale the
    pointer budget is provisioned for.
    """
    points = []
    for n in TOPOLOGY_SCALES:
        entries = {entry: _probe_representation(entry, n)
                   for entry in REPRESENTATIONS}
        points.append({"processors": n, "entries": entries})
    at_guard = next(p for p in points
                    if p["processors"] == GUARD_DIRECTORY_N)["entries"]
    full_mpt = at_guard["full-bit-vector"]["msgs_per_txn"]
    limited_mpt = at_guard["limited-pointer"]["msgs_per_txn"]
    return {
        "workload": "scale-probe",
        "workload_params": dict(REPRESENTATION_WORKLOAD),
        "protocol": "bitar-despain",
        "directory_pointers": REPRESENTATION_POINTERS,
        "scales": list(TOPOLOGY_SCALES),
        "points": points,
        "guard": {
            "at_processors": GUARD_DIRECTORY_N,
            "full_vector_msgs_per_txn": full_mpt,
            "limited_pointer_msgs_per_txn": limited_mpt,
            "ratio": limited_mpt / full_mpt,
        },
    }


def run_topology_crossover() -> dict:
    """Measure every fabric at every scale and locate the snoop-vs-
    directory crossover.

    Broadcast delivery costs N-1 probes per transaction no matter how
    few caches hold the block; the directory's point-to-point fanout
    tracks actual sharers and stays flat as the machine grows.  The
    crossover is the machine size past which the directory moves fewer
    messages per transaction than the broadcast bus.  The nested
    ``representations`` section measures the same fabric under each
    sharer-set representation (see
    :func:`run_representation_comparison`).
    """
    points = []
    for n in TOPOLOGY_SCALES:
        fabrics = {kind: _probe_fabric(kind, n)
                   for kind in TOPOLOGY_FABRICS}
        points.append({"processors": n, "fabrics": fabrics})
    at_guard = next(p for p in points
                    if p["processors"] == GUARD_DIRECTORY_N)["fabrics"]
    snoop_small = _probe_fabric("snoop", GUARD_SNOOP_N)
    directory_mpt = at_guard["directory"]["msgs_per_txn"]
    snoop_mpt = at_guard["snoop"]["msgs_per_txn"]
    # Snoop traffic is exactly N-1 msgs/txn; the directory's is ~flat,
    # so the crossover is the smallest N whose broadcast exceeds it.
    crossover_n = int(directory_mpt) + 2
    dir_cps = at_guard["directory"]["cycles_per_sec"]
    return {
        "workload": "scale-probe",
        "protocol": "bitar-despain",
        "scales": list(TOPOLOGY_SCALES),
        "points": points,
        "crossover": {
            "at_processors": GUARD_DIRECTORY_N,
            "snoop_msgs_per_txn": snoop_mpt,
            "directory_msgs_per_txn": directory_mpt,
            "crossover_processors": crossover_n,
        },
        "guard": {
            "snoop16_cycles_per_sec": snoop_small["cycles_per_sec"],
            "directory256_cycles_per_sec": dir_cps,
            "ratio": dir_cps / snoop_small["cycles_per_sec"],
        },
        "representations": run_representation_comparison(),
    }


def _sweep_run(n) -> object:
    """Module-level so the process pool can pickle it.  Stepped, so the
    sweep-scaling figure keeps timing the same per-cycle work."""
    config = _config(int(n))
    programs = lock_contention(config, rounds=20, think_cycles=1000)
    return Simulator(config, programs, fast_forward=False).run()


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def run_sweep_scaling() -> dict:
    sweep = Sweep(xs=SWEEP_POINTS, run=_sweep_run,
                  metrics={"cycles": lambda s: s.cycles})
    t0 = time.perf_counter()
    serial = sweep.execute()
    serial_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    parallel = sweep.execute(jobs=SWEEP_JOBS)
    parallel_s = time.perf_counter() - t0
    assert list(serial["cycles"].values) == list(parallel["cycles"].values), (
        "parallel sweep changed the results"
    )
    return {
        "points": len(SWEEP_POINTS),
        "jobs": SWEEP_JOBS,
        "available_cpus": _available_cpus(),
        "serial_seconds": serial_s,
        "parallel_seconds": parallel_s,
        "scaling": serial_s / parallel_s,
    }


def test_fast_forward_speedup(benchmark):
    result = benchmark.pedantic(run_engine_comparison, rounds=1, iterations=1,
                                warmup_rounds=0)
    print("\nEngine: stepped vs fast-forward "
          f"({result['processors']} processors, "
          f"think={result['think_cycles']}, {result['cycles']} cycles)")
    print(render_table(
        ["engine", "seconds", "cycles/sec"],
        [["stepped", f"{result['stepped_seconds']:.3f}",
          f"{result['stepped_cycles_per_sec']:,.0f}"],
         ["fast-forward", f"{result['fast_forward_seconds']:.3f}",
          f"{result['fast_forward_cycles_per_sec']:,.0f}"]],
    ))
    print(f"speedup: {result['speedup']:.1f}x")
    assert result["speedup"] >= 5.0, (
        f"fast-forward speedup {result['speedup']:.1f}x below the 5x target"
    )
    _merge_result("engine", result)


def test_table_lookup(benchmark):
    result = benchmark.pedantic(run_lookup_microbench, rounds=1, iterations=1,
                                warmup_rounds=0)
    print(f"\nLookup: {result['protocol']}, {result['probes']} probes x "
          f"{LOOKUP_ROUNDS} rounds")
    print(render_table(
        ["lookup", "seconds", "lookups/sec"],
        [["reference scan", f"{result['scan_seconds']:.3f}",
          f"{result['scan_lookups_per_sec']:,.0f}"],
         ["guard-bit rows", f"{result['bits_seconds']:.3f}",
          f"{result['bits_lookups_per_sec']:,.0f}"]],
    ))
    print(f"speedup: {result['speedup']:.1f}x")
    assert result["speedup"] > 1.0, (
        f"guard-bit lookup slower than the reference scan "
        f"({result['speedup']:.2f}x)"
    )
    _merge_result("lookup", result)


def test_parallel_sweep_scaling(benchmark):
    result = benchmark.pedantic(run_sweep_scaling, rounds=1, iterations=1,
                                warmup_rounds=0)
    cpus = result["available_cpus"]
    print(f"\nSweep: {result['points']} points, "
          f"serial {result['serial_seconds']:.2f}s vs "
          f"{result['jobs']} jobs {result['parallel_seconds']:.2f}s "
          f"({result['scaling']:.1f}x, {cpus} cpus available)")
    if cpus >= 4:
        assert result["scaling"] > 1.5, (
            f"sweep scaling {result['scaling']:.2f}x at {result['jobs']} "
            f"jobs on {cpus} cpus; expected > 1.5x"
        )
    elif cpus >= 2:
        assert result["scaling"] > 1.0, "parallel sweep slower than serial"
    else:
        # No parallelism exists to measure.  Record the honest numbers
        # but do not assert: a pass here would be vacuous and a failure
        # would blame the machine, not the code.
        warnings.warn(
            f"only {cpus} cpu available; skipping the sweep scaling "
            "assertion (recorded scaling "
            f"{result['scaling']:.2f}x is informational)"
        )
    _merge_result("sweep", result)


def test_obs_overhead(benchmark):
    result = benchmark.pedantic(run_obs_overhead, rounds=1, iterations=1,
                                warmup_rounds=0)
    print(f"\nObservability: {result['cycles']} cycles, stepped engine")
    print(render_table(
        ["observer", "seconds", "overhead"],
        [["none (NULL_OBS)", f"{result['null_seconds']:.3f}", "-"],
         ["attached, tracing off", f"{result['tracing_off_seconds']:.3f}",
          f"{result['overhead_disabled']:+.1%}"],
         ["causal tracing on", f"{result['tracing_on_seconds']:.3f}",
          f"{result['overhead_tracing']:+.1%}"]],
    ))
    # The <3% tracing-disabled ceiling is enforced against the recorded
    # numbers by scripts/perf_guard.py (single-run timings are too noisy
    # for a hard assert here).
    _merge_result("obs", result)


def test_topology_crossover(benchmark):
    result = benchmark.pedantic(run_topology_crossover, rounds=1,
                                iterations=1, warmup_rounds=0)
    print("\nFabric scalability: msgs/txn and simulator throughput "
          "(scale-probe, constant total work)")
    rows = []
    for point in result["points"]:
        n = point["processors"]
        cells = [n]
        for kind in TOPOLOGY_FABRICS:
            f = point["fabrics"][kind]
            cells.extend([f"{f['msgs_per_txn']:.1f}",
                          f"{f['cycles_per_sec']:,.0f}"])
        rows.append(cells)
    print(render_table(
        ["procs", "snoop m/t", "snoop cyc/s", "clust m/t", "clust cyc/s",
         "dir m/t", "dir cyc/s"], rows, align_left_first=False))
    cx = result["crossover"]
    print(f"crossover: broadcast outgrows the directory at "
          f"~{cx['crossover_processors']} processors "
          f"(at {cx['at_processors']}: snoop {cx['snoop_msgs_per_txn']:.0f} "
          f"vs directory {cx['directory_msgs_per_txn']:.1f} msgs/txn)")
    for point in result["points"]:
        fabrics = point["fabrics"]
        assert (fabrics["directory"]["msgs_per_txn"]
                < fabrics["snoop"]["msgs_per_txn"]), (
            f"directory fanout did not beat broadcast at "
            f"{point['processors']} processors"
        )
        assert (fabrics["clustered"]["msgs_per_txn"]
                < fabrics["snoop"]["msgs_per_txn"]), (
            f"cluster filtering did not beat broadcast at "
            f"{point['processors']} processors"
        )
    reps = result["representations"]
    print("\nDirectory entry representations: msgs/txn and bits/block "
          f"(scale-probe, {REPRESENTATION_POINTERS} pointers)")
    rows = []
    for point in reps["points"]:
        cells = [point["processors"]]
        for entry in REPRESENTATIONS:
            e = point["entries"][entry]
            cells.extend([f"{e['msgs_per_txn']:.1f}",
                          f"{e['bits_per_block']}"])
        rows.append(cells)
    print(render_table(
        ["procs", "full m/t", "full bits", "lptr m/t", "lptr bits",
         "coarse m/t", "coarse bits"], rows, align_left_first=False))
    rg = reps["guard"]
    print(f"limited-pointer traffic at {rg['at_processors']} processors: "
          f"{rg['limited_pointer_msgs_per_txn']:.1f} vs full vector "
          f"{rg['full_vector_msgs_per_txn']:.1f} msgs/txn "
          f"({rg['ratio']:.2f}x; ceiling enforced by perf_guard)")
    for point in reps["points"]:
        n = point["processors"]
        entries = point["entries"]
        if n <= REPRESENTATION_POINTERS * 8:
            continue
        # Past the pointer break-even the compact entries must actually
        # be compact -- the whole point of trading traffic for storage.
        assert (entries["limited-pointer"]["bits_per_block"]
                < entries["full-bit-vector"]["bits_per_block"]), (
            f"limited-pointer entry not smaller than the bit vector "
            f"at {n} processors"
        )
        assert (entries["coarse-vector"]["bits_per_block"]
                < entries["full-bit-vector"]["bits_per_block"]), (
            f"coarse-vector entry not smaller than the bit vector "
            f"at {n} processors"
        )
    _merge_result("topology", result)


def _merge_result(key: str, value: dict) -> None:
    from repro.common.schema import stamp

    data = {}
    if RESULT_PATH.exists():
        data = json.loads(RESULT_PATH.read_text())
    data[key] = value
    RESULT_PATH.write_text(json.dumps(stamp(data), indent=2) + "\n")
