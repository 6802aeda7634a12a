"""Lock-contention microbenchmark (Sections E.3/E.4).

``n`` processors repeatedly acquire one lock, execute a critical section
(a few reads and writes to the atom, plus optional compute), and release.
This is the workload behind the busy-wait benches: under the proposal,
waiting generates *zero* bus transactions; under test-and-set it
generates one failed RMW per retry.
"""

from __future__ import annotations

from repro.common.config import SystemConfig
from repro.processor import isa
from repro.processor.program import LockStyle, Program
from repro.workloads.base import Atom, layout_for


def lock_contention(
    config: SystemConfig,
    *,
    rounds: int = 8,
    critical_reads: int = 1,
    critical_writes: int = 2,
    think_cycles: int = 4,
    atom_words: int = 4,
    lock_style: LockStyle = LockStyle.CACHE_LOCK,
    ready_work: int = 0,
) -> list[Program]:
    """One shared atom, every processor loops lock/work/unlock."""
    layout = layout_for(config)
    atom = Atom.allocate(layout, atom_words)
    data = atom.data_words()
    programs: list[Program] = []
    for pid in range(config.num_processors):
        ops: list[isa.Op] = []
        for round_no in range(rounds):
            ops.append(isa.lock(atom.lock_word, ready_work=ready_work))
            for i in range(critical_reads):
                ops.append(isa.read(data[i % len(data)] if data else atom.lock_word))
            for i in range(critical_writes):
                target = data[i % len(data)] if data else atom.lock_word
                ops.append(isa.write(target, value=pid + 1))
            # The unlock doubles as the final write to the atom (Figure 8).
            ops.append(isa.unlock(atom.lock_word, value=pid + 1))
            if think_cycles:
                ops.append(isa.compute(think_cycles))
        program = Program(ops=ops, name=f"lock-contention-p{pid}")
        programs.append(program.lowered(lock_style))
    return programs


def uncontended_locks(
    config: SystemConfig,
    *,
    rounds: int = 8,
    atom_words: int = 4,
    lock_style: LockStyle = LockStyle.CACHE_LOCK,
) -> list[Program]:
    """Each processor locks its *own* atom: the zero-time locking case of
    Section E.3 (no contention, no waiting)."""
    layout = layout_for(config)
    programs: list[Program] = []
    for pid in range(config.num_processors):
        atom = Atom.allocate(layout, atom_words)
        data = atom.data_words()
        ops: list[isa.Op] = []
        for _ in range(rounds):
            ops.append(isa.lock(atom.lock_word))
            for word in data:
                ops.append(isa.write(word, value=pid + 1))
            ops.append(isa.unlock(atom.lock_word, value=pid + 1))
        program = Program(ops=ops, name=f"uncontended-p{pid}")
        programs.append(program.lowered(lock_style))
    return programs
