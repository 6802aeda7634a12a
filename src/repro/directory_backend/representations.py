"""Pluggable sharer-set representations for directory entries.

The classic full-map directory (Censier-Feautrier) spends one presence
bit per cache per block -- exact, but the storage grows linearly with
the machine.  The literature's two standard relaxations trade precision
for bits:

* **Limited pointer (Dir-n-B)**: track at most ``n`` exact cache
  pointers; when an ``n+1``-th sharer arrives, set a broadcast bit and
  fall back to probing everyone until a full probe proves the sharer
  count fits the pointers again.
* **Coarse vector**: one presence bit per *region* of ``K`` consecutive
  caches; probes go to every cache of a marked region (a superset of
  the true sharers), and each probe round re-derives the bits exactly
  because every covered cache is probed.

All three live behind one interface so the home-bank table's probe and
refresh actions are representation-blind.  The invariant every
implementation must keep is *conservatism*: the set of caches the
representation admits probing (``listed`` plus, when ``overflowed``,
everyone) is always a superset of the caches that would react to a
snoop.  Under-approximation is the seeded ``directory-narrow-probe``
bug, caught by lint and the model checker.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable, Iterator

from repro.common.config import DIRECTORY_ENTRY_KINDS

if TYPE_CHECKING:
    from repro.common.config import TopologyConfig
    from repro.common.types import CacheId


class SharerSet:
    """Interface of a directory entry's sharer-set representation.

    ``listed`` is the *tracked* membership the probe-listed action
    scans, and ``members`` yields exactly the ids ``listed`` admits, in
    ascending id (port) order, at a cost proportional to the entry's
    size rather than the machine's; ``overflowed`` says the tracking
    lost precision and only a broadcast probe (probe-all) is sound.
    ``refresh`` applies the outcome of a probe round: ``keep``/``drop``
    partition the probed caches by whether they still care, and
    ``complete`` says the round covered every port (so a lossy
    representation may rebuild exactly).

    The set-like aliases (``add``/``discard``/``in``/``len``/``iter``)
    exist so directory state stays scriptable from tests and seeded
    mutations without knowing the representation.
    """

    #: Stable name stamped into results and benchmark payloads.
    kind: str = "abstract"

    def listed(self, cid: "CacheId") -> bool:
        raise NotImplementedError

    def members(self) -> "Iterator[CacheId]":
        raise NotImplementedError

    @property
    def overflowed(self) -> bool:
        raise NotImplementedError

    def enroll(self, cid: "CacheId") -> None:
        raise NotImplementedError

    def discard(self, cid: "CacheId") -> None:
        raise NotImplementedError

    def refresh(self, keep: "list[CacheId]", drop: "list[CacheId]",
                *, complete: bool) -> None:
        raise NotImplementedError

    def bits_per_block(self, num_caches: int) -> int:
        """Directory storage cost of one entry, in presence bits."""
        raise NotImplementedError

    # -- set-like conveniences ------------------------------------------------

    def add(self, cid: "CacheId") -> None:
        self.enroll(cid)

    def __contains__(self, cid: object) -> bool:
        return self.listed(cid)  # type: ignore[arg-type]

    def __iter__(self) -> "Iterator[CacheId]":
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError


class FullBitVector(set, SharerSet):
    """One presence bit per cache: today's exact directory vector.

    Subclasses ``set`` so every operation is literally the pre-refactor
    ``set[CacheId]`` behavior -- the conformance golden holds this
    representation bit-identical to the inline policy it replaced.
    """

    kind = "full-bit-vector"

    def listed(self, cid: "CacheId") -> bool:
        return cid in self

    def members(self) -> "Iterator[CacheId]":
        return iter(sorted(self))

    @property
    def overflowed(self) -> bool:
        return False

    def enroll(self, cid: "CacheId") -> None:
        set.add(self, cid)

    def refresh(self, keep, drop, *, complete: bool) -> None:
        for cid in keep:
            set.add(self, cid)
        for cid in drop:
            set.discard(self, cid)

    def bits_per_block(self, num_caches: int) -> int:
        return num_caches


class LimitedPointerSet(SharerSet):
    """Dir-n-B: at most ``pointers`` exact cache ids, else broadcast.

    While precise, behaves like the full vector restricted to ``n``
    entries.  The ``n+1``-th enrollment sets the overflow (broadcast)
    bit instead of recording the cache; the home-bank table then probes
    everyone for the block.  A broadcast probe covers every port, so its
    refresh is ``complete`` and rebuilds the pointers exactly --
    collapsing back to precise mode when the survivors fit.
    """

    kind = "limited-pointer"

    def __init__(self, pointers: int,
                 members: "Iterable[CacheId]" = ()) -> None:
        if pointers < 1:
            raise ValueError(f"limited-pointer needs >= 1 pointer, "
                             f"got {pointers}")
        self.pointers = pointers
        self._ptrs: "set[CacheId]" = set(members)
        self._overflowed = len(self._ptrs) > pointers
        if self._overflowed:
            self._clamp()

    def _clamp(self) -> None:
        self._ptrs = set(sorted(self._ptrs)[:self.pointers])

    def listed(self, cid: "CacheId") -> bool:
        return cid in self._ptrs

    def members(self) -> "Iterator[CacheId]":
        # Overflowed, the pointers are what ``listed`` still admits; the
        # home-bank table broadcasts (probe-all) for such an entry.
        return iter(sorted(self._ptrs))

    @property
    def overflowed(self) -> bool:
        return self._overflowed

    def enroll(self, cid: "CacheId") -> None:
        if cid in self._ptrs:
            return
        if not self._overflowed and len(self._ptrs) < self.pointers:
            self._ptrs.add(cid)
        else:
            # No free pointer: lose precision, remember only that a
            # broadcast is now required.
            self._overflowed = True

    def discard(self, cid: "CacheId") -> None:
        self._ptrs.discard(cid)

    def refresh(self, keep, drop, *, complete: bool) -> None:
        if complete:
            # The probe round covered every port, so ``keep`` is the
            # exact sharer set: rebuild, collapsing out of broadcast
            # mode when it fits the pointers.
            survivors = set(keep)
            self._overflowed = len(survivors) > self.pointers
            self._ptrs = survivors
            if self._overflowed:
                self._clamp()
            return
        for cid in keep:
            self.enroll(cid)
        for cid in drop:
            self.discard(cid)

    def bits_per_block(self, num_caches: int) -> int:
        return self.pointers * max(1, (num_caches - 1).bit_length()) + 1

    def __iter__(self) -> "Iterator[CacheId]":
        return iter(self._ptrs)

    def __len__(self) -> int:
        return len(self._ptrs)

    def __repr__(self) -> str:
        flag = "!" if self._overflowed else ""
        return f"LimitedPointerSet({sorted(self._ptrs)}{flag})"


class CoarseVector(SharerSet):
    """One presence bit per region of ``region_size`` consecutive caches.

    ``listed`` answers per-cache by the region bit, so probe-listed
    reaches every cache of a marked region -- a superset of the true
    sharers, which is exactly what a snooping bus would do restricted
    to those regions.  Because every covered cache is probed each
    round, refresh re-derives the bits exactly from the survivors; the
    representation never enters broadcast mode.
    """

    kind = "coarse-vector"

    def __init__(self, region_size: int,
                 members: "Iterable[CacheId]" = ()) -> None:
        if region_size < 1:
            raise ValueError(f"coarse-vector needs region size >= 1, "
                             f"got {region_size}")
        self.region_size = region_size
        self._regions: set[int] = {cid // region_size for cid in members}

    def _region(self, cid: "CacheId") -> int:
        return cid // self.region_size

    def listed(self, cid: "CacheId") -> bool:
        return self._region(cid) in self._regions

    def members(self) -> "Iterator[CacheId]":
        """Every cache of every marked region: the superset of the true
        sharers that probe-listed reaches."""
        return iter(self)

    @property
    def overflowed(self) -> bool:
        return False

    def enroll(self, cid: "CacheId") -> None:
        self._regions.add(self._region(cid))

    def discard(self, cid: "CacheId") -> None:
        # Lossy: clears the whole region.  Only sound when every cache
        # of the region is known not to care (refresh guarantees this;
        # ad-hoc callers accept the imprecision).
        self._regions.discard(self._region(cid))

    def refresh(self, keep, drop, *, complete: bool) -> None:
        # Every marked region's caches were probed this round (listed()
        # admits the whole region), so the survivors determine the bits
        # exactly regardless of ``complete``.
        self._regions = {self._region(cid) for cid in keep}

    def bits_per_block(self, num_caches: int) -> int:
        return -(-num_caches // self.region_size)

    def __iter__(self) -> "Iterator[CacheId]":
        for region in sorted(self._regions):
            base = region * self.region_size
            yield from range(base, base + self.region_size)

    def __len__(self) -> int:
        return len(self._regions) * self.region_size

    def __repr__(self) -> str:
        return f"CoarseVector(K={self.region_size}, " \
               f"regions={sorted(self._regions)})"


def representation_factory(
    topology: "TopologyConfig",
) -> "Callable[[], SharerSet]":
    """Zero-arg constructor for the configured sharer-set kind."""
    kind = topology.directory_entry
    if kind == "full-bit-vector":
        return FullBitVector
    if kind == "limited-pointer":
        pointers = topology.directory_pointers
        return lambda: LimitedPointerSet(pointers)
    if kind == "coarse-vector":
        region = topology.directory_region_size
        return lambda: CoarseVector(region)
    known = ", ".join(DIRECTORY_ENTRY_KINDS)
    raise ValueError(f"unknown directory entry kind {kind!r} "
                     f"(known: {known})")


def bits_per_block(topology: "TopologyConfig", num_caches: int) -> int:
    """Directory storage per block for the configured representation."""
    return representation_factory(topology)().bits_per_block(num_caches)
