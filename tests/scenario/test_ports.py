"""The three ported scenarios are bit-identical to their originals.

Identity is asserted at two levels: the generated operation streams
(kind/addr/value/cycles/ready_work/private_hint, per program, per pid)
and the end-to-end :class:`SimStats` under both engines (stepped and
fast-forward) and both ways of executing a transition table: the
guard-bit rows every run uses ("compiled") and the reference guard scan
:meth:`TransitionTable.lookup` ("interpreted", patched in for the run).
"""

import pytest

from repro.api import simulate
from repro.processor.program import LockStyle
from repro.protocols.table import TransitionTable
from repro.workloads.registry import WORKLOADS, build_workload
from tests.conftest import config_for

PORTS = ["lock-contention", "producer-consumer", "request-queue"]


def _op_key(op):
    return (op.kind, op.addr, op.value, op.cycles, op.ready_work,
            op.private_hint)


def _fingerprint(programs):
    return [(p.name, [_op_key(op) for op in p.ops]) for p in programs]


def _scan_lookups(monkeypatch):
    """Route every guard-bit probe through the reference scan; returns
    the list its calls are appended to."""
    calls = []

    def lookup_bits(table, state, event, bits):
        calls.append(event)
        ctx = table.vocabulary.context_of_bits(event, bits)
        return table.lookup(state, event, ctx)

    monkeypatch.setattr(TransitionTable, "lookup_bits", lookup_bits)
    return calls


class TestOpIdentity:
    @pytest.mark.parametrize("name", PORTS)
    @pytest.mark.parametrize("n", [2, 3, 5, 8, 16])
    @pytest.mark.parametrize("style", list(LockStyle))
    def test_ported_streams_identical(self, name, n, style):
        config = config_for("bitar-despain", n=n)
        imperative = build_workload(name, config, style)
        declarative = build_workload(f"scenario:{name}", config, style)
        assert _fingerprint(declarative) == _fingerprint(imperative)

    @pytest.mark.parametrize("name", PORTS)
    def test_one_program_per_processor(self, name):
        config = config_for("bitar-despain", n=5)
        programs = build_workload(f"scenario:{name}", config,
                                  LockStyle.CACHE_LOCK)
        assert len(programs) == 5


class TestStatsIdentity:
    @pytest.mark.parametrize("name", PORTS)
    @pytest.mark.parametrize("fast_forward", [False, True])
    @pytest.mark.parametrize("dispatch", ["compiled", "interpreted"])
    def test_simstats_bit_identical(self, name, fast_forward, dispatch,
                                    monkeypatch):
        calls = (_scan_lookups(monkeypatch)
                 if dispatch == "interpreted" else None)
        kwargs = dict(protocol="bitar-despain", processors=4,
                      fast_forward=fast_forward)
        imperative = simulate(workload=name, **kwargs)
        declarative = simulate(workload=f"scenario:{name}", **kwargs)
        assert declarative.stats.to_dict() == imperative.stats.to_dict()
        if calls is not None:
            assert calls, "the reference scan was never consulted"

    @pytest.mark.parametrize("name", PORTS)
    def test_scenario_entries_registered(self, name):
        assert f"scenario:{name}" in WORKLOADS

    def test_run_result_stamps_lock_style(self):
        result = simulate(workload="scenario:lock-contention",
                          processors=2)
        assert result.lock_style == "cache-lock"
        assert result.to_dict()["lock_style"] == "cache-lock"
