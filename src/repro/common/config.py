"""Configuration objects for the simulated system.

Timing defaults are modeling choices, not paper numbers (the paper reports
none); they are chosen so that the *relative* costs the paper argues about
are represented: a one-cycle invalidation / unlock broadcast (Feature 4 and
Section E.4), cache-to-cache transfer faster than a memory fetch
(Papamarcos & Patel's motivation, Section F.2), and a per-word bus
occupancy so that block size matters (Sections D.3, F.4).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, fields

from repro.common.errors import ConfigError


def _config_to_dict(obj) -> dict:
    """Flatten a config dataclass; enums by value, nested configs recurse."""
    out: dict = {}
    for spec in fields(obj):
        value = getattr(obj, spec.name)
        if isinstance(value, enum.Enum):
            value = value.value
        elif hasattr(value, "to_dict"):
            value = value.to_dict()
        out[spec.name] = value
    return out


def _config_from_dict(cls, data: dict, *, where: str):
    """Rebuild ``cls`` from :func:`_config_to_dict` output, naming the
    offending field in every error."""
    if not isinstance(data, dict):
        raise ConfigError(f"{where}: expected a mapping, got "
                          f"{type(data).__name__}")
    specs = {spec.name: spec for spec in fields(cls)}
    unknown = sorted(set(data) - set(specs))
    if unknown:
        raise ConfigError(f"{where}: unknown field(s) {', '.join(unknown)}")
    kwargs: dict = {}
    for name, value in data.items():
        kind = specs[name].type
        try:
            if name in _NESTED_CONFIG_FIELDS:
                value = _NESTED_CONFIG_FIELDS[name].from_dict(value)
            elif isinstance(kind, str) and kind in _ENUM_FIELD_TYPES:
                value = _ENUM_FIELD_TYPES[kind](value)
        except ConfigError:
            raise
        except (ValueError, KeyError, TypeError) as exc:
            raise ConfigError(f"{where}.{name}: invalid value "
                              f"{value!r} ({exc})") from None
        kwargs[name] = value
    try:
        return cls(**kwargs)
    except ConfigError as exc:
        raise ConfigError(f"{where}: {exc}") from None
    except TypeError as exc:
        raise ConfigError(f"{where}: {exc}") from None


class DirectoryKind(enum.Enum):
    """Feature 3 of Table 1: how the cache directory is organized.

    * ``IDENTICAL_DUAL`` -- two identical copies, one for the processor and
      one for the bus; processor status writes (dirty updates) interfere
      with bus snoops.
    * ``NON_IDENTICAL_DUAL`` -- clean/dirty status lives only in the
      processor directory (and waiter status only in the bus directory),
      eliminating the interference.
    * ``DUAL_PORTED_READ`` -- a single directory with dual-ported reads
      (Katz et al.); writes still interfere.
    """

    IDENTICAL_DUAL = "ID"
    NON_IDENTICAL_DUAL = "NID"
    DUAL_PORTED_READ = "DPR"


class RmwMethod(enum.Enum):
    """Feature 6 of Table 1: the four atomic read-modify-write methods."""

    MEMORY_HOLD = "memory-hold"  # hold the memory unit throughout (Rudolph/Segall)
    #: Fetch exclusive and hold the cache (Frank).  The hold is the
    #: atomic completion: the RMW reads and writes in the one grant (or
    #: write-privileged hit) that gives it sole access, so no other
    #: transaction can come between them and no snoop is ever refused.
    CACHE_HOLD = "cache-hold"
    BUS_HOLD = "bus-hold"  # P&P variant: hold the bus through to the write
    OPTIMISTIC = "optimistic"  # fetch at the write; abort on steal
    LOCK_STATE = "lock-state"  # use the cache lock state (the proposal)


class WaitMode(enum.Enum):
    """How a processor behaves while busy-waiting for a lock (Section E.4)."""

    SPIN = "spin"  # idle (or loop in cache) until the lock is free
    WORK = "work"  # execute a ready section while waiting


@dataclass(frozen=True)
class TimingConfig:
    """Bus/memory/cache latencies, in bus cycles."""

    cache_hit_cycles: int = 1
    #: Cycles for the address/arbitration phase of any bus transaction.
    bus_address_cycles: int = 1
    #: Additional cycles per word moved over the bus.
    word_transfer_cycles: int = 1
    #: Memory access latency before the first word is available.
    memory_latency: int = 6
    #: Cache lookup latency before a cache-to-cache transfer starts.
    cache_supply_latency: int = 1
    #: Extra cycles when multiple read sources must arbitrate (Illinois,
    #: Feature 8 ``ARB``).
    source_arbitration_cycles: int = 2
    #: Extra bus cycles to carry clean/dirty status with a block when the
    #: protocol transfers it (Feature 7 ``S``); 0 models a spare bus line.
    status_transfer_cycles: int = 0
    #: True if a flush-on-transfer proceeds concurrently with the
    #: cache-to-cache transfer (Feature 7 discussion); if False the flush
    #: costs an extra memory write on the bus.
    flush_concurrent: bool = True
    #: One-cycle invalidation / unlock broadcast (Feature 4, Section E.4).
    invalidate_cycles: int = 1
    #: Modify-phase cycles an atomic RMW holds the bus under the bus-hold
    #: method (Feature 6, Papamarcos & Patel variant).
    rmw_modify_cycles: int = 2

    def __post_init__(self) -> None:
        for name in (
            "cache_hit_cycles",
            "bus_address_cycles",
            "word_transfer_cycles",
            "memory_latency",
            "cache_supply_latency",
            "source_arbitration_cycles",
            "status_transfer_cycles",
            "invalidate_cycles",
        ):
            value = getattr(self, name)
            if value < 0:
                raise ConfigError(f"{name} must be non-negative, got {value}")

    def memory_block_cycles(self, words_per_block: int) -> int:
        """Bus occupancy of a block fetch serviced by main memory."""
        return (
            self.bus_address_cycles
            + self.memory_latency
            + self.word_transfer_cycles * words_per_block
        )

    def cache_block_cycles(self, words_per_block: int, *, arbitrate: bool = False) -> int:
        """Bus occupancy of a cache-to-cache block transfer."""
        cycles = (
            self.bus_address_cycles
            + self.cache_supply_latency
            + self.word_transfer_cycles * words_per_block
            + self.status_transfer_cycles
        )
        if arbitrate:
            cycles += self.source_arbitration_cycles
        return cycles

    def word_write_cycles(self) -> int:
        """Bus occupancy of a write-through / update of a single word."""
        return self.bus_address_cycles + self.word_transfer_cycles

    def flush_cycles(self, words_per_block: int) -> int:
        """Bus occupancy of a block flush (write-back) to memory."""
        return (
            self.bus_address_cycles
            + self.memory_latency
            + self.word_transfer_cycles * words_per_block
        )

    def to_dict(self) -> dict:
        return _config_to_dict(self)

    @staticmethod
    def from_dict(data: dict) -> "TimingConfig":
        return _config_from_dict(TimingConfig, data, where="timing")


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and policy of one processor cache."""

    words_per_block: int = 4
    #: Number of block frames in the cache.
    num_blocks: int = 64
    #: Associativity; ``None`` means fully associative (the paper's default
    #: assumption in Section E.3).
    assoc: int | None = None
    #: Transfer-unit size in words (Section D.3); ``None`` means whole-block
    #: transfers.
    transfer_unit_words: int | None = None
    directory: DirectoryKind = DirectoryKind.IDENTICAL_DUAL

    def __post_init__(self) -> None:
        if self.words_per_block <= 0:
            raise ConfigError("words_per_block must be positive")
        if self.num_blocks <= 0:
            raise ConfigError("num_blocks must be positive")
        if self.assoc is not None:
            if self.assoc <= 0:
                raise ConfigError("assoc must be positive or None")
            if self.num_blocks % self.assoc != 0:
                raise ConfigError(
                    f"num_blocks ({self.num_blocks}) must be divisible by "
                    f"assoc ({self.assoc})"
                )
        if self.transfer_unit_words is not None:
            if self.transfer_unit_words <= 0:
                raise ConfigError("transfer_unit_words must be positive or None")
            if self.words_per_block % self.transfer_unit_words != 0:
                raise ConfigError(
                    "words_per_block must be a multiple of transfer_unit_words"
                )

    @property
    def fully_associative(self) -> bool:
        return self.assoc is None

    @property
    def num_sets(self) -> int:
        if self.assoc is None:
            return 1
        return self.num_blocks // self.assoc

    @property
    def ways(self) -> int:
        return self.num_blocks if self.assoc is None else self.assoc

    def to_dict(self) -> dict:
        return _config_to_dict(self)

    @staticmethod
    def from_dict(data: dict) -> "CacheConfig":
        return _config_from_dict(CacheConfig, data, where="cache")


#: Interconnect fabric kinds a :class:`TopologyConfig` can name.
TOPOLOGY_KINDS: tuple[str, ...] = ("snoop", "multibus", "clustered",
                                  "directory")

#: Sharer-set representations a ``directory`` topology can name (see
#: :mod:`repro.directory_backend.representations`).
DIRECTORY_ENTRY_KINDS: tuple[str, ...] = ("full-bit-vector",
                                         "limited-pointer", "coarse-vector")


@dataclass(frozen=True)
class TopologyConfig:
    """Interconnect geometry: which coherence fabric joins the caches.

    * ``snoop`` -- the paper's single broadcast bus (Section A.2).
    * ``multibus`` -- ``buses`` independent broadcast buses over
      block-interleaved address partitions (the dual-bus variant,
      generalized).
    * ``clustered`` -- ``clusters`` clusters of ``buses_per_cluster``
      snooping buses joined by an inter-cluster link; cluster-level
      coherence filtering keeps snoops out of clusters that never
      touched a block, and remote-home transactions pay
      ``inter_cluster_hop_cycles`` on the link.
    * ``directory`` -- a directory backend: ``directory_banks`` home
      banks hold per-block owner/sharer vectors and turn broadcasts
      into point-to-point forward/invalidate/ack messages; every
      transaction serializes at its home bank and pays
      ``directory_lookup_cycles`` plus hop latencies.
    """

    kind: str = "snoop"
    #: Independent broadcast buses (``multibus`` only).
    buses: int = 1
    #: Snooping clusters (``clustered``).
    clusters: int = 1
    #: Buses inside each cluster (``clustered``).
    buses_per_cluster: int = 1
    #: Home banks of the directory (``directory``).
    directory_banks: int = 1
    #: One-way latency of the inter-cluster link / point-to-point
    #: network, in bus cycles.
    inter_cluster_hop_cycles: int = 2
    #: Home-bank directory lookup latency, in bus cycles.
    directory_lookup_cycles: int = 2
    #: Sharer-set representation of directory entries (``directory``
    #: only): ``full-bit-vector`` (exact, one bit per cache),
    #: ``limited-pointer`` (Dir-n-B, broadcast on overflow), or
    #: ``coarse-vector`` (one bit per region of caches).
    directory_entry: str = "full-bit-vector"
    #: Exact cache pointers per entry (``limited-pointer`` only).
    directory_pointers: int = 2
    #: Caches per presence bit (``coarse-vector`` only).
    directory_region_size: int = 4

    def __post_init__(self) -> None:
        if self.kind not in TOPOLOGY_KINDS:
            raise ConfigError(
                f"unknown topology kind {self.kind!r}; expected one of "
                f"{', '.join(TOPOLOGY_KINDS)}"
            )
        for name in ("buses", "clusters", "buses_per_cluster",
                     "directory_banks", "directory_pointers",
                     "directory_region_size"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive, "
                                  f"got {getattr(self, name)}")
        for name in ("inter_cluster_hop_cycles", "directory_lookup_cycles"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be non-negative, "
                                  f"got {getattr(self, name)}")
        if self.directory_entry not in DIRECTORY_ENTRY_KINDS:
            raise ConfigError(
                f"unknown directory entry kind {self.directory_entry!r}; "
                f"expected one of {', '.join(DIRECTORY_ENTRY_KINDS)}"
            )
        if self.kind == "snoop" and self.buses != 1:
            raise ConfigError(f"a snoop topology has exactly one bus, got "
                              f"buses={self.buses}; use kind='multibus' "
                              f"for more")

    @property
    def num_buses(self) -> int:
        """Serialization domains of the fabric: buses, or home banks."""
        if self.kind == "multibus":
            return self.buses
        if self.kind == "clustered":
            return self.clusters * self.buses_per_cluster
        if self.kind == "directory":
            return self.directory_banks
        return 1

    def to_dict(self) -> dict:
        return _config_to_dict(self)

    @staticmethod
    def from_dict(data: dict) -> "TopologyConfig":
        return _config_from_dict(TopologyConfig, data, where="topology")


@dataclass(frozen=True)
class SystemConfig:
    """Complete description of a simulated system."""

    num_processors: int = 4
    protocol: str = "bitar-despain"
    #: The interconnect fabric (default: the single snooping bus).
    topology: TopologyConfig | None = None
    cache: CacheConfig = field(default_factory=CacheConfig)
    timing: TimingConfig = field(default_factory=TimingConfig)
    rmw_method: RmwMethod = RmwMethod.LOCK_STATE
    wait_mode: WaitMode = WaitMode.SPIN
    #: Include an I/O processor port on the bus.
    with_io: bool = False
    #: Raise :class:`~repro.common.errors.CoherenceViolation` immediately on
    #: an invariant failure instead of counting it (the classic write-through
    #: scheme legitimately produces stale reads -- Section F.1 -- so its
    #: benches run with ``strict_verify=False``).
    strict_verify: bool = True
    #: Cycles without any progress before declaring deadlock.
    deadlock_horizon: int = 100_000
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_processors <= 0:
            raise ConfigError(f"num_processors must be positive, "
                              f"got {self.num_processors}")
        if self.deadlock_horizon <= 0:
            raise ConfigError("deadlock_horizon must be positive")
        if self.topology is None:
            object.__setattr__(self, "topology", TopologyConfig())
        elif not isinstance(self.topology, TopologyConfig):
            raise ConfigError(f"topology must be a TopologyConfig, "
                              f"got {self.topology!r}")

    def to_dict(self) -> dict:
        """Serialize to plain data (enums by value, nested configs as
        dicts); :meth:`from_dict` round-trips the result exactly."""
        return _config_to_dict(self)

    @staticmethod
    def from_dict(data: dict) -> "SystemConfig":
        """Rebuild from :meth:`to_dict` output.  Unknown keys, bad enum
        values, and constraint violations raise :class:`ConfigError`
        naming the offending field (``system.cache.assoc``-style)."""
        return _config_from_dict(SystemConfig, data, where="system")


#: Fields of any config dataclass holding a nested config, and the enum
#: types referenced by (string) field annotations -- both consumed by
#: :func:`_config_from_dict` when rebuilding values.
_NESTED_CONFIG_FIELDS = {"cache": CacheConfig, "timing": TimingConfig,
                         "topology": TopologyConfig}
_ENUM_FIELD_TYPES = {
    "DirectoryKind": DirectoryKind,
    "RmwMethod": RmwMethod,
    "WaitMode": WaitMode,
}
