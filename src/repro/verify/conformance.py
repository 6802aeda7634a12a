"""Protocol conformance suite.

A reusable battery of scenario checks any coherence protocol must pass to
be a correct *write-in / write-update broadcast protocol* in this
simulator (Section C's two requirements: serialize conflicting accesses,
provide the latest version).  Downstream users adding a protocol run
``check_conformance("my-protocol")`` and get a list of findings; the
built-in ten all pass (asserted in the test suite).

The battery intentionally tests *semantics*, not policy: it never asserts
which state a protocol uses, only that readers see the latest serialized
writes, exclusivity is exclusive, and locked workloads serialize.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.config import CacheConfig, RmwMethod
from repro.common.errors import ReproError
from repro.processor import isa
from repro.protocols import get_protocol
from repro.sim.harness import ManualSystem
from repro.verify.invariants import InvariantChecker
from repro.workloads.registry import default_words_per_block

B = 0


@dataclass(frozen=True)
class Finding:
    check: str
    detail: str

    def __str__(self) -> str:
        return f"{self.check}: {self.detail}"


def _system(protocol: str, n: int = 3, **kwargs) -> ManualSystem:
    cache_config = kwargs.pop("cache_config", None)
    if cache_config is None:
        cache_config = CacheConfig(
            words_per_block=default_words_per_block(protocol), num_blocks=8)
    return ManualSystem(protocol=protocol, n_caches=n,
                        cache_config=cache_config, **kwargs)


def _check(findings: list[Finding], name: str, fn) -> None:
    try:
        fn()
    except AssertionError as exc:
        findings.append(Finding(name, str(exc) or "assertion failed"))
    except ReproError as exc:
        findings.append(Finding(name, f"{type(exc).__name__}: {exc}"))


def check_conformance(protocol: str, *, serializing: bool = True) -> list[Finding]:
    """Run the battery; returns an empty list for a conformant protocol.

    ``serializing=False`` (classic write-through) skips the checks whose
    premise is serialized conflicting accesses.
    """
    findings: list[Finding] = []

    def read_after_remote_write():
        sys = _system(protocol, strict=serializing)
        wrote = sys.run_op(0, isa.write(B, value=7))
        got = sys.run_op(1, isa.read(B))
        assert got.result == wrote.stamp, "reader missed the latest write"

    def write_after_write_chain():
        sys = _system(protocol, strict=serializing)
        sys.run_op(0, isa.write(B, value=1))
        sys.run_op(1, isa.write(B, value=2))
        final = sys.run_op(2, isa.write(B, value=3))
        got = sys.run_op(0, isa.read(B))
        assert got.result == final.stamp, "ownership chain dropped a write"

    def exclusivity_is_exclusive():
        sys = _system(protocol, strict=serializing)
        sys.run_op(0, isa.write(B, value=1))
        checker = InvariantChecker.for_system(sys.caches, sys.memory,
                                              sys.oracle)
        checker.check_all()

    def eviction_preserves_data():
        sys = _system(
            protocol, n=2, strict=serializing,
            cache_config=CacheConfig(
                words_per_block=default_words_per_block(protocol),
                num_blocks=2, assoc=1,
            ),
        )
        wpb = sys.caches[0].config.words_per_block
        wrote = sys.run_op(0, isa.write(B, value=9))
        for i in range(1, 5):
            sys.run_op(0, isa.read(i * 4 * wpb))  # churn the tiny cache
        got = sys.run_op(1, isa.read(B))
        assert got.result == wrote.stamp, "eviction lost the dirty data"

    def migration_sees_latest():
        sys = _system(protocol, strict=serializing)
        wrote = sys.run_op(0, isa.write(B, value=4))
        got = sys.run_op(2, isa.read(B))
        assert got.result == wrote.stamp, "migrated process read stale data"
        wrote2 = sys.run_op(2, isa.write(B, value=5))
        got2 = sys.run_op(0, isa.read(B))
        assert got2.result == wrote2.stamp, "write-back after migration lost"

    def atomic_rmw_excludes():
        from repro.processor.isa import test_and_set

        sys = _system(protocol, strict=serializing)
        # The method a run with the default rmw_method uses, as the
        # engine resolves it from the protocol's table.
        method = get_protocol(protocol).rmw_method_for(RmwMethod.LOCK_STATE)
        for cache in sys.caches:
            cache.rmw_method = method
        first = sys.run_op(0, isa.rmw(B, test_and_set(1)))
        second = sys.run_op(1, isa.rmw(B, test_and_set(2)))
        assert first.result == 1, "first TAS failed on a free word"
        assert second.result == 0, "mutual exclusion violated"

    _check(findings, "read-after-remote-write", read_after_remote_write)
    if serializing:
        _check(findings, "write-after-write-chain", write_after_write_chain)
        _check(findings, "exclusivity", exclusivity_is_exclusive)
    _check(findings, "eviction-preserves-data", eviction_preserves_data)
    if serializing:
        _check(findings, "migration-sees-latest", migration_sees_latest)
    _check(findings, "atomic-rmw-excludes", atomic_rmw_excludes)
    return findings
