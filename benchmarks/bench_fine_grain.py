"""E3: fine-grained locking -- "only the target atom is locked."

Cache-state locking is as fast as holding an entire cache or memory
module throughout the operation, but locks only the target atom: work on
*disjoint* atoms proceeds in parallel.  The bench compares N processors
updating N disjoint atoms under (a) per-atom cache-state locks, (b) one
coarse global lock, and (c) memory-hold RMWs (which serialize through the
memory unit -- the "holding a memory module" alternative of Feature 6).
"""

from repro import Program, RmwMethod, SystemConfig, run_workload
from repro.analysis.report import render_table
from repro.processor import isa
from repro.processor.isa import fetch_and_add
from repro.workloads.base import Atom, layout_for

from benchmarks.conftest import bench_run, config_for


def _per_atom(config, rounds):
    layout = layout_for(config)
    atoms = [Atom.allocate(layout, 4) for _ in range(config.num_processors)]
    programs = []
    for pid in range(config.num_processors):
        atom = atoms[pid]
        ops = []
        for _ in range(rounds):
            ops.append(isa.lock(atom.lock_word))
            for word in atom.data_words():
                ops.append(isa.write(word, value=pid + 1))
            ops.append(isa.unlock(atom.lock_word, value=pid + 1))
        programs.append(Program(ops))
    return programs


def _global_lock(config, rounds):
    layout = layout_for(config)
    guard = Atom.allocate(layout, 2)
    atoms = [Atom.allocate(layout, 4) for _ in range(config.num_processors)]
    programs = []
    for pid in range(config.num_processors):
        atom = atoms[pid]
        ops = []
        for _ in range(rounds):
            ops.append(isa.lock(guard.lock_word))
            for word in atom.data_words():
                ops.append(isa.write(word, value=pid + 1))
            ops.append(isa.unlock(guard.lock_word, value=pid + 1))
        programs.append(Program(ops))
    return programs


def _memory_hold(config, rounds):
    layout = layout_for(config)
    atoms = [Atom.allocate(layout, 4) for _ in range(config.num_processors)]
    programs = []
    for pid in range(config.num_processors):
        atom = atoms[pid]
        ops = []
        for _ in range(rounds):
            for word in atom.data_words():
                ops.append(isa.rmw(word, fetch_and_add(1)))
        programs.append(Program(ops))
    return programs


def run_granularities():
    rows = []
    for n in (4, 8):
        rounds = 6
        config = config_for("bitar-despain", n=n)
        fine = run_workload(config, _per_atom(config, rounds),
                            check_interval=0)
        config = config_for("bitar-despain", n=n)
        coarse = run_workload(config, _global_lock(config, rounds),
                              check_interval=0)
        # The proposal's table has no sn-write-word row, so it cannot
        # run memory-hold RMWs; a write-in protocol that can runs them.
        config = config_for("illinois", n=n,
                            rmw_method=RmwMethod.MEMORY_HOLD)
        memhold = run_workload(config, _memory_hold(config, rounds),
                               check_interval=0)
        rows.append([n, fine.cycles, coarse.cycles, memhold.cycles])
    return rows


def test_fine_grained_locking(benchmark):
    rows = bench_run(benchmark, run_granularities)
    print("\nSection E.3: disjoint-atom updates under three granularities")
    print(render_table(
        ["procs", "per-atom cache locks", "one global lock",
         "memory-hold RMWs"],
        rows, align_left_first=False,
    ))
    for row in rows:
        n, fine, coarse, memhold = row
        assert fine < coarse  # disjoint atoms never wait on each other
        assert fine < memhold  # nor serialize through the memory unit
    # The coarse lock's penalty grows with processor count; fine-grained
    # locking scales.
    fine4, fine8 = rows[0][1], rows[1][1]
    coarse4, coarse8 = rows[0][2], rows[1][2]
    assert (coarse8 / coarse4) > (fine8 / fine4)
