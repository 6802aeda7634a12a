"""Unit tests for bus arbitration (round-robin + priority bit)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import SystemConfig
from repro.bus import bus as bus_module
from repro.bus.arbiter import Arbiter
from repro.bus.bus import Bus
from repro.common.config import TopologyConfig
from repro.sim.engine import Simulator
from repro.workloads import lock_contention


class Req:
    def __init__(self, high: bool = False) -> None:
        self.high_priority = high


class TestRoundRobin:
    def test_single_requester(self):
        arb = Arbiter([0, 1, 2])
        assert arb.arbitrate({1: Req()}) == 1

    def test_empty(self):
        arb = Arbiter([0, 1])
        assert arb.arbitrate({}) is None

    def test_rotates_after_winner(self):
        arb = Arbiter([0, 1, 2])
        reqs = {0: Req(), 1: Req(), 2: Req()}
        winners = [arb.arbitrate(reqs) for _ in range(6)]
        assert winners == [0, 1, 2, 0, 1, 2]

    def test_fairness_under_persistent_load(self):
        arb = Arbiter(list(range(4)))
        counts = {i: 0 for i in range(4)}
        reqs = {i: Req() for i in range(4)}
        for _ in range(40):
            counts[arb.arbitrate(reqs)] += 1
        assert all(c == 10 for c in counts.values())

    def test_skips_non_requesters(self):
        arb = Arbiter([0, 1, 2, 3])
        assert arb.arbitrate({2: Req()}) == 2
        assert arb.arbitrate({0: Req(), 1: Req()}) == 0  # after 2, wrap

    def test_requires_ports(self):
        with pytest.raises(ValueError):
            Arbiter([])

    def test_unknown_requester_rejected(self):
        arb = Arbiter([0, 1])
        with pytest.raises(ValueError):
            arb.arbitrate({5: Req()})


class TestAdd:
    def test_add_matches_a_fresh_arbiter(self):
        arb = Arbiter([4])
        for port in (7, 1, 9):
            arb.add(port)
        fresh = Arbiter([4, 7, 1, 9])
        assert arb.ports == fresh.ports
        assert arb._order == fresh._order
        assert arb._last_winner_index == fresh._last_winner_index
        reqs = {4: Req(), 1: Req(), 9: Req()}
        assert [arb.arbitrate(reqs) for _ in range(4)] == \
            [fresh.arbitrate(reqs) for _ in range(4)]


class TestConstruction:
    """Attaching N ports builds each bus's arbiter once and grows it in
    place, so fabric construction is O(N), not O(N^2)."""

    def test_directory_banks_build_one_arbiter_each(self, monkeypatch):
        built = []
        registered = []

        class CountingArbiter(Arbiter):
            def __init__(self, ports):
                built.append(list(ports))
                super().__init__(ports)

        original = Bus.register

        def register(bus, port):
            slot = original(bus, port)
            fresh = Arbiter(list(bus._ports))
            assert bus._arbiter._order == fresh._order
            assert bus._arbiter._last_winner_index == \
                fresh._last_winner_index
            registered.append(port.id)
            return slot

        monkeypatch.setattr(bus_module, "Arbiter", CountingArbiter)
        monkeypatch.setattr(Bus, "register", register)
        config = SystemConfig(
            num_processors=8, with_io=True,
            topology=TopologyConfig(kind="directory", directory_banks=4))
        sim = Simulator(config, lock_contention(config))
        assert len(sim.bus.buses) == 4
        assert len(built) == 4
        # Every bank registers the eight caches and the I/O port.
        assert len(registered) == 4 * 9
        assert all(len(bus._port_list) == 9 for bus in sim.bus.buses)


class TestPriorityBit:
    """Section E.4: busy-wait registers use a most-significant priority
    bit so a fired waiter wins the next arbitration."""

    def test_high_beats_low(self):
        arb = Arbiter([0, 1, 2])
        assert arb.arbitrate({0: Req(), 2: Req(high=True)}) == 2

    def test_round_robin_within_high(self):
        arb = Arbiter([0, 1, 2])
        reqs = {1: Req(high=True), 2: Req(high=True)}
        first = arb.arbitrate(reqs)
        second = arb.arbitrate(reqs)
        assert {first, second} == {1, 2}

    def test_no_waiters_proceeds_normally(self):
        """'If there are no waiters after all... the arbitration will
        proceed normally, with no wasted time.'"""
        arb = Arbiter([0, 1])
        assert arb.arbitrate({0: Req()}) == 0


class TestOrder:
    """The preference order the bus grants from (and offers a scheduler)."""

    def test_rotates_after_last_winner(self):
        arb = Arbiter([0, 1, 2, 3])
        arb.commit(1)
        assert arb.order([0, 1, 2, 3], []) == [2, 3, 0, 1]

    def test_high_class_only(self):
        arb = Arbiter([0, 1, 2, 3])
        arb.commit(2)
        assert arb.order([0, 1, 2, 3], [0, 2]) == [0, 2]


class TestFairnessProperties:
    @given(n_ports=st.integers(2, 8),
           pattern=st.lists(st.sets(st.integers(0, 7), min_size=1),
                            min_size=5, max_size=40))
    def test_no_starvation_within_priority_class(self, n_ports, pattern):
        """A persistent requester wins within n_ports grants of any point
        at which it is requesting (no starvation)."""
        arb = Arbiter(list(range(n_ports)))
        waiting_since: dict[int, int] = {}
        for round_no, requesters in enumerate(pattern):
            requesters = {r % n_ports for r in requesters}
            for r in requesters:
                waiting_since.setdefault(r, round_no)
            winner = arb.arbitrate({r: Req() for r in requesters})
            assert winner in requesters
            waiting_since.pop(winner, None)
            # Anyone not requesting this round resets its wait clock.
            for r in list(waiting_since):
                if r not in requesters:
                    waiting_since.pop(r)
            for r, since in waiting_since.items():
                assert round_no - since < n_ports, (
                    f"port {r} starved for {round_no - since} rounds"
                )

    @given(n_ports=st.integers(2, 6), high=st.sets(st.integers(0, 5), min_size=1))
    def test_high_priority_always_wins(self, n_ports, high):
        arb = Arbiter(list(range(n_ports)))
        high = {h % n_ports for h in high}
        requests = {i: Req(high=(i in high)) for i in range(n_ports)}
        assert arb.arbitrate(requests) in high
