"""Extending the simulator with a new protocol.

Defines a minimal MSI protocol (Modified/Shared/Invalid -- the textbook
reduction of the Table-1 family: no clean-exclusive state, no source for
clean blocks, flush on transfer), registers it, lints its table,
validates it with the conformance battery, prints its state diagram, and
races it against its descendants.

This is the template for adding any protocol: write its
``TransitionTable`` (one row per state x event it reacts to), subclass
``TableProtocol`` with a ``name``, the table and the Table-1 feature
column, register it with ``register_protocol``, and check it with
``lint_table`` and ``check_conformance``.

Run:  python examples/extend_protocol.py
"""

from repro import LockStyle, SystemConfig, run_workload
from repro.analysis import render_table
from repro.analysis.diagram import render_diagram
from repro.cache.state import CacheState
from repro.lint.rules import lint_table
from repro.protocols import register_protocol, unregister_protocol
from repro.protocols.features import (
    DirectoryDuality,
    FlushPolicy,
    ProtocolFeatures,
    ReadSourcePolicy,
    SharingDetermination,
)
from repro.protocols.table import Event, TableProtocol, TransitionTable, rule
from repro.verify.conformance import check_conformance
from repro.workloads import lock_contention

_FEATURES = ProtocolFeatures(
    name="Minimal MSI (example)",
    citation="textbook MSI",
    year=1983,
    distributed_state="RWDS",
    directory=DirectoryDuality.UNSPECIFIED,
    bus_invalidate_signal=True,
    fetch_for_write_on_read_miss=SharingDetermination.NONE,
    atomic_rmw=True,
    flush_policy=FlushPolicy.FLUSH,
    read_source_policy=ReadSourcePolicy.NONE,
    state_roles={
        CacheState.INVALID: "N",
        CacheState.READ: "N",  # Shared
        CacheState.WRITE_DIRTY: "S",  # Modified
    },
)

_I = CacheState.INVALID
_S = CacheState.READ
_M = CacheState.WRITE_DIRTY

_TABLE = TransitionTable(
    "msi-example",
    [
        # processor reads
        rule(_M, Event.PR_READ, _M, ["hit"]),
        rule(_S, Event.PR_READ, _S, ["hit"]),
        rule(_I, Event.PR_READ, _I, ["bus:read"]),
        # processor writes: a one-cycle invalidation upgrades a shared copy
        rule(_M, Event.PR_WRITE, _M, ["hit"]),
        rule(_S, Event.PR_WRITE, _S, ["bus:upgrade"]),
        rule(_I, Event.PR_WRITE, _I, ["bus:read-excl"]),
        # block writes fetch the block for write privilege first
        rule(_M, Event.PR_WRITE_BLOCK, _M, ["hit"]),
        rule(_S, Event.PR_WRITE_BLOCK, _S, ["bus:read-excl"]),
        rule(_I, Event.PR_WRITE_BLOCK, _I, ["bus:read-excl"]),
        # atomic RMW: the cache-hold machinery issues these operations
        rule(_M, Event.PR_RMW, _M, ["hit"]),
        rule(_S, Event.PR_RMW, _S, ["bus:upgrade"]),
        rule(_I, Event.PR_RMW, _I, ["bus:read-excl"]),
        # fills: every exclusive fetch lands Modified (no clean write state)
        rule(_I, Event.FILL_READ, _S),
        rule(_I, Event.FILL_EXCL, _M),
        # upgrade completion; a copy lost while queued refetches
        rule(_S, Event.DONE_UPGRADE, _M),
        rule(_I, Event.DONE_UPGRADE, _I, ["rebus:read-excl"]),
        # snooping a foreign read: Modified supplies and flushes
        rule(_M, Event.SN_READ, _S, ["supply", "flush"]),
        rule(_S, Event.SN_READ, _S),
        # snooping a foreign exclusive fetch: Modified hands over clean
        rule(_M, Event.SN_EXCL, _I, ["supply", "flush-clean"]),
        rule(_S, Event.SN_EXCL, _I),
        # snooping a foreign upgrade
        rule(_M, Event.SN_UPGRADE, _I),
        rule(_S, Event.SN_UPGRADE, _I),
        # snooping a foreign word write (memory-hold RMW traffic)
        rule(_M, Event.SN_WRITE_WORD, _I, ["flush"]),
        rule(_S, Event.SN_WRITE_WORD, _I),
    ],
)


class MsiProtocol(TableProtocol):
    """Three states; every exclusive fetch lands Modified; dirty blocks
    flush when transferred."""

    name = "msi-example"
    table = _TABLE

    @classmethod
    def features(cls) -> ProtocolFeatures:
        return _FEATURES


def main() -> None:
    findings = lint_table(MsiProtocol.table)
    if findings:
        for finding in findings:
            print("LINT:", finding)
        raise SystemExit(1)
    print("msi-example lints clean.")

    register_protocol(MsiProtocol)
    try:
        failures = check_conformance(MsiProtocol.name)
        if failures:
            for failure in failures:
                print("FAIL:", failure)
            raise SystemExit(1)
        print("msi-example passes the conformance battery.\n")
        print(render_diagram(MsiProtocol.table, "mermaid"))

        rows = []
        for protocol, style in [
            ("msi-example", LockStyle.TTAS),
            ("illinois", LockStyle.TTAS),
            ("bitar-despain", LockStyle.CACHE_LOCK),
        ]:
            config = SystemConfig(num_processors=4, protocol=protocol)
            stats = run_workload(
                config, lock_contention(config, rounds=4, lock_style=style),
                check_interval=16,
            )
            rows.append([protocol, stats.cycles, stats.bus_busy_cycles,
                         stats.failed_lock_attempts])
        print(render_table(
            ["protocol", "cycles", "bus cycles", "failed attempts"],
            rows, title="The new protocol vs its descendants",
        ))
    finally:
        unregister_protocol(MsiProtocol.name)


if __name__ == "__main__":
    main()
