"""Bus arbitration.

Round-robin among equal-priority requesters, with one most-significant
priority bit reserved for busy-wait registers (Section E.4): after an
unlock broadcast, waiting caches assert the bit so one of them wins the
very next arbitration; if no waiter asserts it, arbitration proceeds
normally "with no wasted time".
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Protocol

from repro.common.types import CacheId


class ArbitrationRequest(Protocol):
    """What the arbiter needs to know about a standing request."""

    @property
    def high_priority(self) -> bool: ...


class Arbiter:
    """Priority + round-robin arbiter over cache ids."""

    def __init__(self, ports: list[CacheId]) -> None:
        if not ports:
            raise ValueError("arbiter needs at least one port")
        self._ports = list(ports)
        self._order = {cid: i for i, cid in enumerate(self._ports)}
        self._last_winner_index = len(self._ports) - 1

    def add(self, port: CacheId) -> None:
        """Register one more port, last in the round-robin order.  The
        arbiter is then exactly the one ``Arbiter(ports + [port])`` would
        build, at O(1) instead of O(len(ports))."""
        self._order[port] = len(self._ports)
        self._ports.append(port)
        self._last_winner_index = len(self._ports) - 1

    def arbitrate(
        self, requests: dict[CacheId, ArbitrationRequest]
    ) -> CacheId | None:
        """Pick the winning requester, or ``None`` if there are none.

        High-priority requests always beat normal ones; ties within a
        priority class are broken round-robin starting after the previous
        winner (see :meth:`order`).
        """
        if not requests:
            return None
        order = self._order
        unknown = [cid for cid in requests if cid not in order]
        if unknown:
            # Candidates must be registered ports.
            raise ValueError(f"unknown requesters: {sorted(unknown)}")
        positions = sorted(order[cid] for cid in requests)
        high = sorted(order[cid] for cid, req in requests.items()
                      if req.high_priority)
        return self.commit(self._ports[self.order(positions, high)[0]])

    def order(self, positions: list[int], high: list[int]) -> list[int]:
        """The grantable requesters in arbitration-preference order.

        ``positions`` are the requesters' ascending port positions and
        ``high`` the ascending subset asserting the priority bit.  The
        result is the winning priority class only (high beats normal),
        rotated so the first position after the previous winner's leads.
        Any entry is a legal grant a hardware arbiter could make;
        :meth:`commit` records the one taken.  O(len(positions)),
        however many ports the arbiter has.
        """
        pool = high or positions
        split = bisect_left(pool, self._last_winner_index + 1)
        return pool[split:] + pool[:split]

    def commit(self, winner: CacheId) -> CacheId:
        """Record ``winner`` as the grant for round-robin fairness."""
        self._last_winner_index = self._order[winner]
        return winner

    @property
    def ports(self) -> list[CacheId]:
        return list(self._ports)
