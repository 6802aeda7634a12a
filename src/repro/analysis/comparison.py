"""Protocol comparison runner.

One call runs a workload across a protocol field (with per-protocol lock
lowering) and returns a uniform result table -- the machinery behind the
shootout example and the ``python -m repro compare`` subcommand.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.analysis.metrics import lock_metrics
from repro.analysis.report import render_table
from repro.common.config import CacheConfig, SystemConfig
from repro.processor.program import LockStyle, Program
from repro.sim.engine import run_workload
from repro.sim.stats import SimStats
from repro.workloads.registry import (default_lock_style,
                                      default_strict_verify,
                                      default_words_per_block)


@dataclass(frozen=True)
class ComparisonRow:
    protocol: str
    cycles: int
    bus_busy_cycles: int
    bus_utilization: float
    failed_lock_attempts: int
    lock_acquisitions: int
    stale_reads: int

    @staticmethod
    def from_stats(protocol: str, stats: SimStats) -> "ComparisonRow":
        return ComparisonRow(
            protocol=protocol,
            cycles=stats.cycles,
            bus_busy_cycles=stats.bus_busy_cycles,
            bus_utilization=stats.bus_utilization,
            failed_lock_attempts=stats.failed_lock_attempts,
            lock_acquisitions=stats.total_lock_acquisitions,
            stale_reads=stats.stale_reads,
        )


def compare_protocols(
    protocols: Sequence[str],
    make_programs: Callable[[SystemConfig, LockStyle], list[Program]],
    *,
    num_processors: int = 4,
    check_interval: int = 0,
    seed: int = 0,
) -> list[ComparisonRow]:
    """Run the same logical workload on every protocol."""
    rows = []
    for protocol in protocols:
        config = SystemConfig(
            num_processors=num_processors,
            protocol=protocol,
            strict_verify=default_strict_verify(protocol),
            cache=CacheConfig(
                words_per_block=default_words_per_block(protocol),
                num_blocks=64),
            seed=seed,
        )
        programs = make_programs(config, default_lock_style(protocol))
        stats = run_workload(config, programs, check_interval=check_interval)
        rows.append(ComparisonRow.from_stats(protocol, stats))
    return rows


def render_comparison(rows: Sequence[ComparisonRow],
                      title: str = "Protocol comparison") -> str:
    return render_table(
        ["protocol", "cycles", "bus cycles", "bus util",
         "failed attempts", "acquisitions", "stale reads"],
        [
            [r.protocol, r.cycles, r.bus_busy_cycles,
             f"{r.bus_utilization:.0%}", r.failed_lock_attempts,
             r.lock_acquisitions, r.stale_reads]
            for r in rows
        ],
        title=title,
    )
