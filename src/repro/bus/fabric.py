"""Interconnect-fabric registry (the topology analogue of the protocol
registry).

Each :data:`~repro.common.config.TOPOLOGY_KINDS` entry maps to a builder
that assembles the corresponding fabric from a
:class:`~repro.common.config.TopologyConfig`:

* ``snoop`` -- the plain single :class:`~repro.bus.bus.Bus` (the paper's
  broadcast bus; also what the engine's fast-forward path is calibrated
  against, so the default stays bit-identical).
* ``multibus`` -- :class:`~repro.bus.multibus.MultiBusSystem` with
  ``topology.buses`` block-interleaved buses (built even for one bus, so
  its request routing is exercised by the conformance matrix).
* ``clustered`` -- :class:`~repro.bus.hierarchy.ClusteredBusSystem`.
* ``directory`` -- :class:`~repro.directory_backend.DirectorySystem`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.common.config import TOPOLOGY_KINDS, TimingConfig, TopologyConfig
from repro.common.errors import ConfigError

if TYPE_CHECKING:
    from repro.memory.main_memory import MainMemory
    from repro.obs.core import Observability
    from repro.sim.clock import Clock
    from repro.sim.stats import SimStats

#: Fabric kinds the registry can build (same namespace as
#: ``TopologyConfig.kind``).
FABRIC_KINDS: tuple[str, ...] = TOPOLOGY_KINDS

def _build_snoop(topology: TopologyConfig, memory, timing, clock, stats,
                 obs):
    from repro.bus.bus import Bus

    return Bus(memory, timing, clock, stats, obs=obs)


def _build_multibus(topology: TopologyConfig, memory, timing, clock, stats,
                    obs):
    from repro.bus.multibus import MultiBusSystem

    return MultiBusSystem(topology.buses, memory, timing, clock, stats,
                          obs)


def _build_clustered(topology: TopologyConfig, memory, timing, clock, stats,
                     obs):
    from repro.bus.hierarchy import ClusteredBusSystem

    return ClusteredBusSystem(topology, memory, timing, clock, stats,
                              obs)


def _build_directory(topology: TopologyConfig, memory, timing, clock, stats,
                     obs):
    from repro.directory_backend import DirectorySystem

    return DirectorySystem(topology, memory, timing, clock, stats, obs)


_FABRICS: dict[str, Callable] = {
    "snoop": _build_snoop,
    "multibus": _build_multibus,
    "clustered": _build_clustered,
    "directory": _build_directory,
}


def get_fabric(kind: str) -> Callable:
    """Look up a fabric builder by topology kind."""
    try:
        return _FABRICS[kind]
    except KeyError:
        known = ", ".join(FABRIC_KINDS)
        raise ConfigError(
            f"unknown fabric kind {kind!r}; known fabrics: {known}"
        ) from None


def build_fabric(
    topology: TopologyConfig,
    memory: "MainMemory",
    timing: TimingConfig,
    clock: "Clock",
    stats: "SimStats",
    obs: "Observability",
):
    """Assemble the fabric a :class:`TopologyConfig` describes."""
    return get_fabric(topology.kind)(topology, memory, timing, clock,
                                     stats, obs)


__all__ = [
    "FABRIC_KINDS",
    "get_fabric",
    "build_fabric",
]
