"""Directory-duality models (Feature 3 of Table 1).

The paper analyzes how updating a block's dirty status (a processor-side
directory *write*) interferes with the bus controller's snoops:

* **identical dual (ID)** -- both directories must be written, so a status
  write collides with a concurrent bus snoop;
* **dual-ported-read (DPR)** -- one directory, dual-ported for reads; a
  write still blocks the snoop port;
* **non-identical dual (NID)** -- dirty status lives only in the processor
  directory (and waiter status only in the bus directory), so status writes
  never touch the snoop port.

We account interference cycles: one per coincidence of a status write with
a snoop in the same cycle.  Bitar (1985) estimates the frequency of status
*changes* (write hits to clean blocks) at 0.2%-1.2% of references, which is
why NID "is probably not warranted"; the directory bench reproduces that
argument.

The fabric that delivers a snoop charges it, not the snooped cache.  A
bus that snoops every port but the requester settles once per broadcast
through its :class:`BroadcastLog`; a fabric that delivers to a subset
(clustered interest filtering, directory probes) charges each delivered
cache's model with :meth:`DirectoryModel.record_delivery`.  Either way
the rule is the one above: a snoop charges if its cache wrote status
earlier in the cycle, and a status write charges if its cache was
snooped earlier in the cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.config import DirectoryKind


class BroadcastLog:
    """The broadcasts of one bus that snoops every port but the
    requester, kept once per broadcast for the directory models of the
    caches on it (:meth:`DirectoryModel.watch`)."""

    __slots__ = ("count", "at", "by", "_writers", "_writers_at")

    def __init__(self) -> None:
        #: Broadcasts so far.
        self.count = 0
        #: Cycle of the latest broadcast (no real cycle is ever -1) and
        #: its requester's model (``None`` for a cacheless port).
        self.at = -1
        self.by: DirectoryModel | None = None
        #: The interfering models that wrote status in cycle
        #: ``_writers_at``, each listed once.
        self._writers: list[DirectoryModel] = []
        self._writers_at = -1

    def record(self, now: int, requester: "DirectoryModel | None") -> None:
        """A broadcast in cycle ``now`` snoops every watching model but
        ``requester``'s; each that wrote status earlier in the cycle pays
        one interference cycle."""
        self.count += 1
        self.at = now
        self.by = requester
        if requester is not None:
            requester.own_broadcasts += 1
        if self._writers_at == now:
            for model in self._writers:
                if model is not requester:
                    model.interference_cycles += 1

    def _note_writer(self, model: "DirectoryModel", now: int) -> None:
        if self._writers_at != now:
            self._writers = []
            self._writers_at = now
        self._writers.append(model)


@dataclass
class DirectoryModel:
    """Tracks processor-side status writes and charges interference.

    Coincidence detection is stamp-based: each record carries the cycle
    it happened in (``now``), and a collision is two records stamped
    with the same cycle.  This keeps the simulator's per-cycle cost at
    zero -- nothing needs resetting on quiet cycles.
    """

    kind: DirectoryKind
    status_writes: int = 0
    interference_cycles: int = 0
    #: Broadcasts this cache requested on the buses it watches, none of
    #: which snooped it.
    own_broadcasts: int = 0
    #: Snoops delivered one by one (:meth:`record_delivery`).
    _delivered: int = 0
    #: Cycle stamps of the latest write/delivery (no real cycle is ever -1).
    _written_at: int = -1
    _snooped_at: int = -1
    #: The broadcast logs of the buses that snoop this cache on every
    #: broadcast but its own.
    _logs: list[BroadcastLog] = field(default_factory=list, repr=False)
    #: Whether this directory kind charges interference.
    _interferes: bool = False

    def __post_init__(self) -> None:
        self._interferes = self.kind in (
            DirectoryKind.IDENTICAL_DUAL,
            DirectoryKind.DUAL_PORTED_READ,
        )

    def watch(self, log: BroadcastLog) -> None:
        """Be snooped by every broadcast ``log`` records but this
        cache's own (the bus attaches its caches before it broadcasts)."""
        self._logs.append(log)

    @property
    def snoops(self) -> int:
        """Snoops this directory served: every broadcast on a watched
        bus but its own, plus the explicit deliveries."""
        return (self._delivered - self.own_broadcasts
                + sum(log.count for log in self._logs))

    def record_status_write(self, now: int) -> None:
        """A processor write changed clean->dirty (or set waiter status).
        Colliding with a same-cycle snoop costs an interference cycle
        (either side may arrive first within the cycle)."""
        self.status_writes += 1
        if not self._interferes:
            return
        if self._written_at != now:
            self._written_at = now
            for log in self._logs:
                log._note_writer(self, now)
        if self._snooped_at == now or any(
                log.at == now and log.by is not self for log in self._logs):
            self.interference_cycles += 1

    def record_delivery(self, now: int) -> None:
        """A fabric delivered one snoop to this cache in cycle ``now``."""
        self._delivered += 1
        self._snooped_at = now
        if self._written_at == now and self._interferes:
            self.interference_cycles += 1

    @property
    def interference_rate(self) -> float:
        snoops = self.snoops
        if snoops == 0:
            return 0.0
        return self.interference_cycles / snoops
