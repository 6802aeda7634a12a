"""Observability output fingerprints.

Each case runs a traced (or untraced) observed simulation on both
engines and hashes canonical JSON of ``SimStats.to_payload()`` plus
``ObsResult.to_dict()``.  The digests were recorded before the obs
layer's hot paths were rewritten; a refactor of ``repro.obs`` must
reproduce them byte for byte.  JSON keys keep their insertion order, so
the order of every span's ``args`` is pinned as well.

Together the cases reach every way an episode closes: inside a lock
wait window, as an invalidation-forced refetch, outside any window,
aborted (optimistic RMW), truncated (``max_cycles``), re-armed after a
lost post-unlock arbitration, and over several REBUS phases; plus a
crossbar stall, a second bus, directory messages and inter-cluster
hops.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro import CacheConfig, SystemConfig
from repro.aquarius import AquariusSimulator, aquarius_workload
from repro.common.config import RmwMethod, TopologyConfig
from repro.obs import Observability
from repro.processor.program import LockStyle
from repro.sim.engine import Simulator
from repro.workloads import lock_contention, producer_consumer


def _config(protocol: str, n: int, **kwargs) -> SystemConfig:
    return SystemConfig(
        num_processors=n, protocol=protocol, strict_verify=True,
        cache=CacheConfig(words_per_block=1 if protocol == "rudolph-segall"
                          else 4, num_blocks=64),
        **kwargs)


def _locks(config: SystemConfig, style: LockStyle, **params):
    params.setdefault("rounds", 5)
    params.setdefault("think_cycles", 9)
    return lock_contention(config, lock_style=style, **params)


#: name -> (config, program builder, simulator class, tracing, max_cycles)
CASES = {
    # lock16-attributed's machine at its reduced size: wakeups, re-arms,
    # in-window and out-of-window episodes, handoff chains.
    "lock16": (_config("bitar-despain", 16),
               lambda c: lock_contention(c, rounds=4), Simulator, True,
               None),
    "lock16-untraced": (_config("bitar-despain", 16),
                        lambda c: lock_contention(c, rounds=4), Simulator,
                        False, None),
    # Invalidation-forced refetches under a TTAS spin; optimistic RMWs
    # abort when the block is stolen between the read and the write.
    "illinois-optimistic": (
        _config("illinois", 4, rmw_method=RmwMethod.OPTIMISTIC),
        lambda c: _locks(c, LockStyle.TTAS), Simulator, True, None),
    # Multi-phase (REBUS) transactions on one-word blocks.
    "rudolph-segall": (_config("rudolph-segall", 4),
                       lambda c: _locks(c, LockStyle.TTAS), Simulator, True,
                       None),
    # Cut mid-run: open episodes and waits close truncated.  Cuts at
    # most other cycles fail the attribution sum check (a known defect,
    # recorded in CHANGES.md); this one closes cleanly.
    "truncated": (_config("bitar-despain", 4),
                  lambda c: _locks(c, LockStyle.CACHE_LOCK), Simulator, True,
                  174),
    # Crossbar round trips beside the bus.
    "aquarius": (_config("bitar-despain", 4),
                 lambda c: aquarius_workload(c, tasks_per_processor=3),
                 AquariusSimulator, True, None),
    "directory": (
        _config("bitar-despain", 8,
                topology=TopologyConfig(kind="directory", directory_banks=2)),
        lambda c: _locks(c, LockStyle.CACHE_LOCK), Simulator, True, None),
    # Producer-consumer touches blocks on both buses.
    "multibus": (
        _config("illinois", 4,
                topology=TopologyConfig(kind="multibus", buses=2)),
        lambda c: producer_consumer(c, lock_style=LockStyle.TTAS),
        Simulator, True, None),
    "clustered": (
        _config("illinois", 8,
                topology=TopologyConfig(kind="clustered", clusters=2)),
        lambda c: _locks(c, LockStyle.TTAS, rounds=3), Simulator, True,
        None),
}

#: sha256 of each case's canonical output, identical on both engines.
DIGESTS = {
    "aquarius": "5ae4644864851a3a817d9c901fd8f45d67d8ebd9fb0ae9a060f7df03b669d5dd",
    "clustered": "10be721d8d68595628ab24faa69dbf531b81046f02be1e2d135a1c59c3264a95",
    "directory": "3cede04c2d872d3bc62730e39fd56b7611593a8e996612cee077fb0e0995c06f",
    "illinois-optimistic": "6fb323277de78ee36b77842d75d10ccdbd21689b526fa1634d4c84ca18a568d8",
    "lock16": "30bf14a1fff8f8854756dbfd5e3821546d14009eed6b85b1d2b6d590cc43ec55",
    "lock16-untraced": "24d292aab8956e64d54b675020c4a6930ee8530e39d674c25c6585f1f4783cb2",
    "multibus": "7de7757e2f527e65ac60cb4f5a9f057f598807f8a5b57eb280445ac62995e2dc",
    "rudolph-segall": "26ce8b4d76002626179ed5ddf2d12cc4ff4787b45cce1a929267c956aad7335c",
    "truncated": "5197de1929e4042ca70b046583ca344d4f8d5b43d716905457e013935d8b5af6",
}


def fingerprint(name: str, *, fast_forward: bool) -> str:
    config, build, simulator, tracing, max_cycles = CASES[name]
    obs = Observability(interval=50, tracing=tracing)
    sim = simulator(config, build(config), obs=obs,
                    fast_forward=fast_forward)
    stats = sim.run(max_cycles=max_cycles)
    text = json.dumps({"stats": stats.to_payload(),
                       "obs": obs.result().to_dict()},
                      separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("fast_forward", [False, True],
                         ids=["stepped", "fast"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_recorded_digest(name, fast_forward):
    assert fingerprint(name, fast_forward=fast_forward) == DIGESTS[name]
