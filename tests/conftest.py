"""Shared test fixtures and helpers."""

from __future__ import annotations

import os

import pytest
from hypothesis import HealthCheck, settings

from repro import CacheConfig, LockStyle, SimStats, Simulator, SystemConfig
from repro.sim.harness import ManualSystem

# Simulation-backed examples have legitimately variable runtimes; the
# default 200 ms deadline flakes under load.  Determinism comes from the
# simulator, not wall-clock.
settings.register_profile(
    "repro",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")

def child_env(pythonpath: str) -> dict[str, str]:
    """A bare environment for a child interpreter that imports from
    ``pythonpath``.  It keeps the caller's ``PYTHONDONTWRITEBYTECODE``:
    a test run that disabled bytecode writes must not leave
    ``__pycache__`` behind through its children."""
    env = {"PYTHONPATH": pythonpath, "PATH": "/usr/bin:/bin"}
    if "PYTHONDONTWRITEBYTECODE" in os.environ:
        env["PYTHONDONTWRITEBYTECODE"] = os.environ["PYTHONDONTWRITEBYTECODE"]
    return env


#: Every protocol with the block size it requires and whether the strict
#: oracle applies (classic write-through legitimately produces stale
#: reads, Section F.1).
ALL_PROTOCOLS: list[tuple[str, int, bool]] = [
    ("write-through", 4, False),
    ("goodman", 4, True),
    ("synapse", 4, True),
    ("illinois", 4, True),
    ("yen", 4, True),
    ("berkeley", 4, True),
    ("bitar-despain", 4, True),
    ("dragon", 4, True),
    ("firefly", 4, True),
    ("rudolph-segall", 1, True),
]

WRITE_IN_PROTOCOLS = [
    "goodman", "synapse", "illinois", "yen", "berkeley", "bitar-despain",
]


def style_for(protocol: str) -> LockStyle:
    return LockStyle.CACHE_LOCK if protocol == "bitar-despain" else LockStyle.TTAS


def config_for(protocol: str, *, n: int = 4, wpb: int | None = None,
               **kwargs) -> SystemConfig:
    block = wpb if wpb is not None else (1 if protocol == "rudolph-segall" else 4)
    strict = kwargs.pop("strict_verify", protocol != "write-through")
    return SystemConfig(
        num_processors=n,
        protocol=protocol,
        strict_verify=strict,
        cache=kwargs.pop("cache", CacheConfig(words_per_block=block, num_blocks=64)),
        **kwargs,
    )


@pytest.fixture
def two_caches() -> ManualSystem:
    """A two-cache Bitar-Despain system driven manually."""
    return ManualSystem(protocol="bitar-despain", n_caches=2)


@pytest.fixture
def three_caches() -> ManualSystem:
    return ManualSystem(protocol="bitar-despain", n_caches=3)


def manual(protocol: str, n: int = 2, **kwargs) -> ManualSystem:
    if protocol == "rudolph-segall" and "cache_config" not in kwargs:
        kwargs["cache_config"] = CacheConfig(words_per_block=1, num_blocks=64)
    return ManualSystem(protocol=protocol, n_caches=n, **kwargs)


def engines(config: SystemConfig, programs, *, simulator=Simulator,
            max_wall_seconds: float | None = None,
            **sim_kwargs) -> list[SimStats]:
    """``[stepped, fast]``: the statistics of ``programs`` run on a fresh
    ``simulator`` per engine."""
    return [simulator(config, programs, fast_forward=fast_forward,
                      **sim_kwargs).run(max_wall_seconds=max_wall_seconds)
            for fast_forward in (False, True)]
