"""Small, replayable scenarios for the model checker.

Each scenario is a *family* of tiny concurrent programs parameterized by
protocol: a couple of processors touching one or two blocks, small
enough that the schedule space is exhaustively enumerable, yet shaped to
exercise the behaviours the paper's correctness argument rests on --
lock handoff (Section E.3/E.4), atomic read-modify-write serialization
(Feature 6), racing unsynchronized writes, read-source arbitration
(Feature 8), and dirty-victim write-back.

Builders return a *fresh* config and program list on every call:
:class:`~repro.processor.isa.Op` instances are mutated during a run
(stamps, results), so programs must never be shared between runs.

Lock ops are lowered per protocol exactly as the benchmarks do: the
proposal keeps its cache-state lock instructions, everything else spins
with test-and-test-and-set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.common.config import CacheConfig, SystemConfig, TopologyConfig
from repro.common.errors import ConfigError, ReproError
from repro.processor.isa import lock, read, rmw, test_and_set, unlock, write
from repro.processor.program import Program
from repro.workloads.registry import (default_lock_style,
                                      default_strict_verify,
                                      default_words_per_block)

#: Word addresses used by every scenario.  With four-word blocks LOCK and
#: DATA share one block (the paper's hard atom: lock word + data words);
#: with one-word blocks (Rudolph-Segall) they land in adjacent blocks --
#: so the scenarios span the required 1-2 block configurations.
LOCK_WORD = 0
DATA_WORD = 1


class ExpectationError(ReproError):
    """A scenario's final-state expectation did not hold."""


@dataclass(frozen=True)
class Scenario:
    """One named, protocol-parameterized model-checking scenario."""

    name: str
    description: str
    #: Builds ``(config, programs)`` fresh for each run.
    build: Callable[[str], tuple[SystemConfig, list[Program]]]
    #: Final-state check over the finished simulator; raises
    #: :class:`ExpectationError` on violation.  ``None`` means the
    #: per-cycle invariants and the oracle are the whole property.
    expect: Callable[[object], None] | None = None
    #: Whether the scenario is small enough for exhaustive enumeration
    #: (otherwise the checker only fuzzes it).
    exhaustive: bool = True


def _config(protocol: str, n: int, *, num_blocks: int = 8,
            assoc: int | None = None, horizon: int = 2_000,
            topology: TopologyConfig | None = None) -> SystemConfig:
    return SystemConfig(
        num_processors=n,
        protocol=protocol,
        cache=CacheConfig(words_per_block=default_words_per_block(protocol),
                          num_blocks=num_blocks, assoc=assoc),
        strict_verify=default_strict_verify(protocol),
        deadlock_horizon=horizon,
        topology=topology,
    )


def _lowered(protocol: str, programs: list[Program]) -> list[Program]:
    style = default_lock_style(protocol)
    return [program.lowered(style) for program in programs]


# -- expectations -----------------------------------------------------------


def _expect_lock_handoff(n: int) -> Callable[[object], None]:
    def check(sim) -> None:
        acquired = sum(p.stats.lock_acquisitions for p in sim.processors)
        if acquired != n:
            raise ExpectationError(
                f"expected {n} lock acquisitions, saw {acquired}"
            )
        if sim.stats.lost_updates != 0:
            raise ExpectationError(
                f"writes under the lock serialized out of stamp order "
                f"({sim.stats.lost_updates} lost updates)"
            )
        if sim.config.strict_verify and sim.stats.stale_reads != 0:
            raise ExpectationError(
                f"{sim.stats.stale_reads} stale reads under the lock"
            )
    return check


def _expect_single_winner(sim) -> None:
    if sim.stats.failed_lock_attempts != 1:
        raise ExpectationError(
            "exactly one of two racing test-and-sets must fail; "
            f"saw {sim.stats.failed_lock_attempts} failures"
        )


# -- builders ---------------------------------------------------------------


def _lock_handoff(protocol: str):
    config = _config(protocol, 2)
    programs = [
        Program(ops=[lock(LOCK_WORD), write(DATA_WORD, value=10 + pid),
                     read(DATA_WORD), unlock(LOCK_WORD)],
                name=f"handoff-{pid}")
        for pid in range(2)
    ]
    return config, _lowered(protocol, programs)


def _three_way_lock(protocol: str):
    config = _config(protocol, 3)
    programs = [
        Program(ops=[lock(LOCK_WORD), write(DATA_WORD, value=10 + pid),
                     unlock(LOCK_WORD)],
                name=f"three-way-{pid}")
        for pid in range(3)
    ]
    return config, _lowered(protocol, programs)


def _tas_race(protocol: str):
    config = _config(protocol, 2)
    programs = [
        Program(ops=[rmw(LOCK_WORD, test_and_set(pid + 1), value=pid + 1),
                     read(DATA_WORD)],
                name=f"tas-{pid}")
        for pid in range(2)
    ]
    return config, programs


def _racing_writes(protocol: str):
    config = _config(protocol, 2)
    programs = [
        Program(ops=[write(DATA_WORD, value=pid + 1), read(DATA_WORD)],
                name=f"race-{pid}")
        for pid in range(2)
    ]
    return config, programs


def _shared_upgrade(protocol: str):
    config = _config(protocol, 2)
    return config, [
        Program(ops=[read(DATA_WORD), write(DATA_WORD, value=7)],
                name="upgrader"),
        Program(ops=[read(DATA_WORD), read(DATA_WORD)], name="reader"),
    ]


def _read_share(protocol: str):
    config = _config(protocol, 3)
    return config, [
        Program(ops=[write(DATA_WORD, value=3)], name="writer"),
        Program(ops=[read(DATA_WORD)], name="reader-1"),
        Program(ops=[read(DATA_WORD)], name="reader-2"),
    ]


def _directory_upgrade(protocol: str):
    # The shared-upgrade access pattern served by the directory fabric
    # instead of a broadcast bus: the home bank must keep the reader in
    # the block's sharer vector for as long as its copy is live, or the
    # upgrade never reaches it.
    config = _config(protocol, 2,
                     topology=TopologyConfig(kind="directory"))
    return config, [
        Program(ops=[read(DATA_WORD), write(DATA_WORD, value=7)],
                name="upgrader"),
        Program(ops=[read(DATA_WORD), read(DATA_WORD)], name="reader"),
    ]


def _directory_overflow(protocol: str):
    # The same upgrade-over-shared-copy pattern, but the home bank tracks
    # sharers with a one-pointer limited-pointer entry: the second reader
    # overflows it, and from then on only a broadcast probe (the OVERFLOW
    # rows' probe-all) can reach the untracked copy.
    config = _config(protocol, 2,
                     topology=TopologyConfig(kind="directory",
                                             directory_entry="limited-pointer",
                                             directory_pointers=1))
    return config, [
        Program(ops=[read(DATA_WORD), write(DATA_WORD, value=7)],
                name="upgrader"),
        Program(ops=[read(DATA_WORD), read(DATA_WORD)], name="reader"),
    ]


def _evict_writeback(protocol: str):
    # Two direct-mapped frames: the second and third reads evict the
    # dirty first block, forcing the write-back path.
    config = _config(protocol, 2, num_blocks=2, assoc=1)
    wpb = config.cache.words_per_block
    far = 2 * config.cache.num_sets * wpb  # same set as word 0
    return config, [
        Program(ops=[write(0, value=5), read(far), read(2 * far)],
                name="evictor"),
        Program(ops=[read(0)], name="checker"),
    ]


#: Registry of all scenarios, by name.
SCENARIOS: dict[str, Scenario] = {
    scenario.name: scenario
    for scenario in [
        Scenario(
            name="lock-handoff",
            description="Two processors serialize a write+read through one "
                        "lock (hard atom, Section E.3).",
            build=_lock_handoff,
            expect=_expect_lock_handoff(2),
        ),
        Scenario(
            name="tas-race",
            description="Two racing atomic test-and-sets; exactly one may "
                        "win (Feature 6).",
            build=_tas_race,
            expect=_expect_single_winner,
        ),
        Scenario(
            name="racing-writes",
            description="Unsynchronized writes and reads of one word; "
                        "every read must still see the latest serialized "
                        "write.",
            build=_racing_writes,
        ),
        Scenario(
            name="shared-upgrade",
            description="Write privilege upgraded over a shared copy "
                        "(Feature 4); the other copy must not go stale.",
            build=_shared_upgrade,
        ),
        Scenario(
            name="directory-upgrade",
            description="Write privilege upgraded over a shared copy, with "
                        "the directory fabric routing the probes: the home "
                        "bank's sharer vector must still reach every live "
                        "copy.",
            build=_directory_upgrade,
        ),
        Scenario(
            name="directory-overflow",
            description="Upgrade over a shared copy with a one-pointer "
                        "limited-pointer directory entry: once the entry "
                        "overflows, only the OVERFLOW rows' broadcast probe "
                        "reaches the untracked copy.",
            build=_directory_overflow,
        ),
        Scenario(
            name="evict-writeback",
            description="A dirty block is evicted by conflict misses; the "
                        "write-back must keep the latest version reachable.",
            build=_evict_writeback,
        ),
        Scenario(
            name="read-share",
            description="Two readers fetch a block a third cache wrote "
                        "(read-source arbitration, Feature 8).",
            build=_read_share,
            exhaustive=False,
        ),
        Scenario(
            name="three-way-lock",
            description="Three-way lock contention: the waiter-wake "
                        "arbitration (Figure 9) under every ordering.",
            build=_three_way_lock,
            expect=_expect_lock_handoff(3),
            exhaustive=False,
        ),
    ]
}


def get_scenario(name: str) -> Scenario:
    try:
        return SCENARIOS[name]
    except KeyError:
        known = ", ".join(sorted(SCENARIOS))
        raise ConfigError(
            f"unknown scenario {name!r} (known: {known})") from None
