"""Guards on the per-event path.

The functions below run once per executed cycle, processor tick, cache
access, snoop delivery or bus transaction (or, at set-up, once per op a
workload builds).  On CPython 3.11 reading an enum member through its
class (``OpKind.READ``) goes through the Python-level
``EnumType.__getattr__``, and a membership test against a tuple literal
of members builds the tuple and reads every member that way each time
it runs; the per-event code binds members to module aliases and tests
membership against module-level tuples instead (DESIGN.md section 4).
The scan below fails on either form creeping back in.

The snoop path also returns shared, read-only replies
(:data:`~repro.bus.signals.SNOOP_MISS`, ``SNOOP_NOTHING``,
``SNOOP_UNLOCK_TAKEN``); a consumer that mutated one would corrupt
every later snoop, so reduced benchmark-shaped runs must leave them at
their defaults.
"""

from __future__ import annotations

import ast
import enum
import inspect
import textwrap

import pytest

from repro import CacheConfig, SystemConfig
from repro.bus.bus import Bus, RequesterEntry
from repro.bus.hierarchy import ClusterBus
from repro.bus.signals import (
    SNOOP_MISS, SNOOP_NOTHING, SNOOP_UNLOCK_TAKEN, SnoopReply)
from repro.cache.busy_wait import BusyWaitRegister
from repro.cache.cache import SnoopingCache
from repro.cache.organization import CacheArray
from repro.common.config import TopologyConfig
from repro.directory_backend import table as directory_table
from repro.directory_backend.system import DirectoryFabric
from repro.processor.isa import Op, OpKind
from repro.processor.processor import Processor
from repro.protocols.table import TableProtocol, TransitionTable
from repro.sim.engine import Simulator
from repro.workloads import lock_contention, scale_probe

#: ``(owner, names)``: the per-event functions, by layer.
HOT_PATH = [
    (Simulator, ("step", "run", "_run_fast", "_finish_cycle",
                 "_tick_every", "_tick", "_wake", "_watch_progress")),
    (Processor, ("done", "next_event_cycle", "settle", "advance_quiet",
                 "tick", "_tick_stalled", "_on_completed", "_issue_next",
                 "_begin_spin", "_make_tas", "_continue_spin",
                 "_end_spin", "_start_access", "_retire", "_advance")),
    (SnoopingCache, ("block_of", "access", "_dispatch", "_dispatch_rmw",
                     "_count_hit", "_count_miss", "_finish_local",
                     "take_completion", "has_bus_request",
                     "has_request_hint", "current_request_block",
                     "bus_request_revalidates", "_sync_request",
                     "_revalidate_pending", "take_bus_transaction",
                     "_build_txn", "on_txn_granted", "_enter_lock_wait",
                     "_finish_pending", "_unlock_after_rmw",
                     "finish_bus_release", "cares_about", "snoop",
                     "_snoop_unlock_broadcast", "invalidate_line",
                     "_purge", "apply_write", "_mark_dirty")),
    (CacheArray, ("lookup",)),
    (Bus, ("step", "next_event_cycle", "_arbitrate", "_execute",
           "_snoop_all", "_resolve_data", "_duration", "_base_duration",
           "_count_events")),
    (RequesterEntry, ("place",)),
    (ClusterBus, ("_snoop_all", "_duration")),
    (DirectoryFabric, ("_probe", "_snoop_all", "_execute", "_refresh",
                       "_duration")),
    (directory_table, ("home_state_of", "guard_bits_of")),
    (TransitionTable, ("lookup_bits",)),
    (TableProtocol, ("processor_read", "processor_write",
                     "processor_lock", "processor_unlock",
                     "processor_write_block", "_processor_access",
                     "_lookup_processor", "_lookup_completion",
                     "_lookup_snoop", "_build_request",
                     "revalidate_request", "after_txn", "_rebus_request",
                     "snoop", "snoop_read", "snoop_exclusive",
                     "snoop_word_write", "_snoop_table")),
    (BusyWaitRegister, ("active", "arm", "notice_unlock",
                        "lost_arbitration", "clear")),
    # Set-up rather than per-event, but it runs once per op a workload
    # builds (6,144 ops at lock16's size).
    (Op, ("__post_init__",)),
]


def _functions():
    for owner, names in HOT_PATH:
        for name in names:
            fn = inspect.getattr_static(owner, name)
            if isinstance(fn, property):
                fn = fn.fget
            label = f"{getattr(owner, '__qualname__', owner.__name__)}.{name}"
            yield pytest.param(fn, id=label)


def _enum_member(node: ast.AST, namespace: dict) -> str | None:
    """``"Class.MEMBER"`` when ``node`` reads an enum member through its
    class, else ``None``."""
    if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and isinstance(node.ctx, ast.Load)):
        owner = namespace.get(node.value.id)
        if (isinstance(owner, type) and issubclass(owner, enum.Enum)
                and node.attr in owner.__members__):
            return f"{node.value.id}.{node.attr}"
    return None


def _is_member(node: ast.AST, namespace: dict) -> bool:
    """Does ``node`` evaluate to an enum member (through its class or
    through a module alias)?"""
    if _enum_member(node, namespace) is not None:
        return True
    return (isinstance(node, ast.Name)
            and isinstance(namespace.get(node.id), enum.Enum))


def _violations(fn) -> list[str]:
    namespace = fn.__globals__
    tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
    found = []
    for node in ast.walk(tree):
        member = _enum_member(node, namespace)
        if member is not None:
            found.append(f"line {node.lineno}: reads {member} through "
                         "its class")
        if isinstance(node, ast.Compare):
            for op, right in zip(node.ops, node.comparators):
                if (isinstance(op, (ast.In, ast.NotIn))
                        and isinstance(right, ast.Tuple)
                        and any(_is_member(elt, namespace)
                                for elt in right.elts)):
                    found.append(f"line {node.lineno}: membership test "
                                 "against a tuple literal of enum members")
    return found


@pytest.mark.parametrize("fn", _functions())
def test_no_enum_class_reads_on_the_hot_path(fn):
    assert _violations(fn) == []


def _slow_example(op):
    if op.kind in (OpKind.WRITE, OpKind.UNLOCK):
        return OpKind.READ
    return None


def test_the_scan_sees_both_forms():
    # The tuple test, the two reads inside it, and the returned read.
    assert len(_violations(_slow_example)) == 4


# -- shared snoop replies ------------------------------------------------------

def _lock_run() -> Simulator:
    config = SystemConfig(num_processors=16, protocol="bitar-despain",
                          cache=CacheConfig(words_per_block=4,
                                            num_blocks=64))
    return Simulator(config, lock_contention(config, rounds=4),
                     fast_forward=False)


def _probe_run(topology: TopologyConfig, **params) -> Simulator:
    config = SystemConfig(num_processors=16, protocol="bitar-despain",
                          topology=topology,
                          cache=CacheConfig(words_per_block=4,
                                            num_blocks=64))
    return Simulator(config, scale_probe(config, seed=0,
                                         total_references=256, **params))


RUNS = {
    "lock16": _lock_run,
    "snoop256": lambda: _probe_run(TopologyConfig(kind="snoop")),
    "dir256-write": lambda: _probe_run(
        TopologyConfig(kind="directory", directory_banks=4,
                       directory_entry="limited-pointer",
                       directory_pointers=4),
        write_fraction=0.6, shared_blocks=64, zipf_skew=0.2),
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_shared_replies_stay_at_their_defaults(name):
    sim = RUNS[name]()
    returned = set()
    for cache in sim.caches:
        def counted(txn, snoop=cache.snoop):
            reply = snoop(txn)
            returned.add(id(reply))
            return reply
        cache.snoop = counted
    sim.run()
    assert id(SNOOP_MISS) in returned
    assert id(SNOOP_NOTHING) in returned or name != "lock16"
    assert id(SNOOP_UNLOCK_TAKEN) in returned or name != "lock16"
    assert SNOOP_MISS == SnoopReply()
    assert SNOOP_NOTHING == SnoopReply()
    assert SNOOP_UNLOCK_TAKEN == SnoopReply(hit=True)
