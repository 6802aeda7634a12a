"""repro -- a reproduction of Bitar & Despain (ISCA 1986),
"Multiprocessor Cache Synchronization: Issues, Innovations, Evolution".

A cycle-level simulator of a full-broadcast (single-bus) shared-memory
multiprocessor, with ten coherence protocols including the paper's
proposed lock-integrated scheme, workload generators, verification
oracles, and benches that regenerate every table and figure.

Quickstart::

    from repro import SystemConfig, run_workload
    from repro.workloads import producer_consumer

    config = SystemConfig(num_processors=4, protocol="bitar-despain")
    programs = producer_consumer(config, items=32)
    stats = run_workload(config, programs, check_interval=64)
    print(stats.to_dict())
"""

from repro._version import __version__
from repro.common.config import (
    CacheConfig,
    DirectoryKind,
    RmwMethod,
    SystemConfig,
    TimingConfig,
    WaitMode,
)
from repro.common.errors import (
    CoherenceViolation,
    ConfigError,
    DeadlockError,
    ProgramError,
    ProtocolError,
    ReproError,
    SerializationViolation,
    UnknownProtocolError,
)
from repro.processor.isa import Op, OpKind
from repro.processor.program import LockStyle, Program
from repro.protocols import PROTOCOL_NAMES, TABLE1_PROTOCOLS, get_protocol
from repro.sim.engine import Simulator, run_workload
from repro.sim.stats import ProcessorStats, SimStats

def __getattr__(name: str):
    # ``repro.api`` (and ``repro.mc``) import the simulator internals, so
    # they load lazily to keep ``import repro`` light and cycle-free.
    # ``PROTOCOLS`` imports all ten protocol modules, so it waits too.
    if name in ("api", "mc"):
        import importlib

        return importlib.import_module(f"repro.{name}")
    if name == "PROTOCOLS":
        from repro.protocols import PROTOCOLS

        return PROTOCOLS
    raise AttributeError(f"module 'repro' has no attribute {name!r}")


__all__ = [
    "api",
    "mc",
    "CacheConfig",
    "CoherenceViolation",
    "ConfigError",
    "DeadlockError",
    "DirectoryKind",
    "LockStyle",
    "Op",
    "OpKind",
    "PROTOCOLS",
    "PROTOCOL_NAMES",
    "ProcessorStats",
    "Program",
    "ProgramError",
    "ProtocolError",
    "ReproError",
    "RmwMethod",
    "SerializationViolation",
    "SimStats",
    "Simulator",
    "SystemConfig",
    "TABLE1_PROTOCOLS",
    "TimingConfig",
    "UnknownProtocolError",
    "WaitMode",
    "__version__",
    "get_protocol",
    "run_workload",
]
