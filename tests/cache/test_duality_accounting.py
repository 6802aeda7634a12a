"""Directory-duality accounting (Feature 3) equals the per-delivery rule.

The snoop bus and each bus of a multibus settle every cache's duality
model once per broadcast; the clustered and directory fabrics charge
each snoop they deliver.  Either way each cache's ``(status_writes,
snoops, interference_cycles)`` must be what charging every delivered
snoop one by one gives: a delivery counts and charges if its cache
wrote status earlier in the cycle, and a status write charges if its
cache was snooped earlier in the cycle.  The reference below applies
that rule by wrapping each cache's ``snoop`` (every delivery is a real
call) and its model's ``record_status_write``.
"""

import functools

import pytest

from repro import CacheConfig, DirectoryKind, Simulator, SystemConfig
from repro.common.config import TopologyConfig
from repro.workloads import interleaved_sharing

FABRICS = {
    "snoop": TopologyConfig(kind="snoop"),
    "multibus-2": TopologyConfig(kind="multibus", buses=2),
    "clustered-2": TopologyConfig(kind="clustered", clusters=2),
    "directory-4": TopologyConfig(kind="directory", directory_banks=4),
}
PROTOCOLS = ["bitar-despain", "illinois"]
INTERFERING = (DirectoryKind.IDENTICAL_DUAL, DirectoryKind.DUAL_PORTED_READ)


class _PerDelivery:
    """One cache's directory charged snoop by snoop."""

    def __init__(self, kind: DirectoryKind) -> None:
        self.interferes = kind in INTERFERING
        self.status_writes = self.snoops = self.interference_cycles = 0
        self.written_at = self.snooped_at = -1

    def snoop(self, now: int) -> None:
        self.snoops += 1
        self.snooped_at = now
        if self.written_at == now and self.interferes:
            self.interference_cycles += 1

    def status_write(self, now: int) -> None:
        self.status_writes += 1
        self.written_at = now
        if self.snooped_at == now and self.interferes:
            self.interference_cycles += 1

    def account(self) -> tuple[int, int, int]:
        return self.status_writes, self.snoops, self.interference_cycles


def _wrap(cache, reference: _PerDelivery) -> None:
    snoop = cache.snoop
    directory = cache.directory
    record_status_write = directory.record_status_write

    def delivered(txn):
        reference.snoop(cache.clock.cycle)
        return snoop(txn)

    def status_write(now):
        reference.status_write(now)
        record_status_write(now)

    cache.snoop = delivered
    directory.record_status_write = status_write


@functools.cache
def _accounts(fabric: str, protocol: str, kind: DirectoryKind,
              fast_forward: bool) -> tuple[list, list]:
    """``(fabric's, reference's)`` per-cache accounts of one run."""
    config = SystemConfig(
        num_processors=8, protocol=protocol, topology=FABRICS[fabric],
        cache=CacheConfig(words_per_block=4, num_blocks=32, directory=kind))
    programs = interleaved_sharing(config, references=200,
                                   shared_fraction=0.6, shared_blocks=12)
    sim = Simulator(config, programs, fast_forward=fast_forward)
    references = [_PerDelivery(kind) for _ in sim.caches]
    for cache, reference in zip(sim.caches, references):
        _wrap(cache, reference)
    stats = sim.run()
    fabrics = [(c.directory.status_writes, c.directory.snoops,
                c.directory.interference_cycles) for c in sim.caches]
    assert stats.directory_interference_cycles == sum(
        account[2] for account in fabrics)
    return fabrics, [reference.account() for reference in references]


@pytest.mark.parametrize("fast_forward", [False, True],
                         ids=["stepped", "fast-forward"])
@pytest.mark.parametrize("kind", list(DirectoryKind), ids=lambda k: k.value)
@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("fabric", sorted(FABRICS))
def test_matches_per_delivery_rule(fabric, protocol, kind, fast_forward):
    fabrics, references = _accounts(fabric, protocol, kind, fast_forward)
    assert fabrics == references
    assert sum(account[1] for account in references) > 0


def test_identical_dual_interferes_somewhere():
    """The comparison above is not vacuous: some ID run charges."""
    charged = [
        (fabric, protocol)
        for fabric in FABRICS for protocol in PROTOCOLS
        if sum(account[2] for account in _accounts(
            fabric, protocol, DirectoryKind.IDENTICAL_DUAL, True)[1])
    ]
    assert charged
