"""The home-bank policy as TransitionTable IR.

PR 8 gave the directory fabric a fixed, procedural probe policy; this
module lifts it into the same :class:`~repro.protocols.table.Rule`
vocabulary the cache-side protocols use, so the home bank is lintable
(``repro lint``), mutable (the mc harness edits rows, not code), and
executed by the same :meth:`~repro.protocols.table.TransitionTable.lookup_bits`
probe, over a directory :class:`~repro.protocols.table.TableVocabulary`.

**States** are the classic directory-entry occupancies: ``UNCACHED``
(no sharer listed), ``SHARED`` (clean sharers listed), ``OWNED`` (a
dirty owner listed), and ``OVERFLOW`` (a lossy representation lost
precision -- Dir-n-B's broadcast bit).  The fabric *re-derives* the
concrete state from the entry after each refresh (``home_state_of``):
pointer overflow is a representation event, not a request event, so the
rows' ``next_state`` documents the nominal occupancy and the derivation
is authoritative.

**Events** are request classes over the full bus-op alphabet
(:data:`DIR_EVENT_OF` is total -- the ``directory-completeness`` lint
enforces it): block fetches, exclusive fetches, upgrades, single-word
traffic, and control traffic (flushes, unlock broadcasts, memory-side
RMW, I/O).

**Guards** describe the entry the request met: occupancy
(``dir-peers``/``dir-alone``), owner identity
(``dir-owner-self``/``dir-owner-other``), and representation precision
(``dir-overflowed``/``dir-precise``).  The default table is guard-free
-- one row per (state, event) -- but mutations and future hybrid
policies may split rows on them.

**Actions** execute in three phases of the fabric:

* delivery (``_snoop_all``): ``enroll`` the requester into the sharer
  set, ``count-request``, and select the probe set -- ``probe-listed``
  (the representation's tracked membership, in port order) or
  ``probe-all`` (every other port; the only sound choice when the
  representation has overflowed);
* membership (``_execute``): ``refresh`` re-derives membership for the
  caches the transaction could have changed;
* accounting (``_duration``): ``count-response`` and ``tally-traffic``
  update the bank's message tallies (single-sourced to the observability
  feed), and the ``pay-*`` atoms charge the timing model --
  ``pay-lookup`` (home-bank lookup), ``pay-round-trip`` (request/
  response), ``pay-forward-hop`` (third hop of a cache-to-cache
  supply), ``pay-inval-round-trip`` (the slowest probe's
  invalidate/ack).

The soundness obligations the old module argued in prose are now lint
rules (see ``repro.lint.rules``): every delivery row must enroll,
probe, and refresh (``directory-sharer-drop``), overflowed entries must
be probed by broadcast (``directory-overflow-policy``), and the table
must cover the whole request alphabet (``directory-completeness``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.bus.transaction import BusOp
from repro.common.types import IdentityEnum
from repro.protocols.table import Rule, TableVocabulary, TransitionTable, rule

if TYPE_CHECKING:
    from repro.common.types import CacheId
    from repro.directory_backend.state import DirectoryEntry


class HomeState(IdentityEnum):
    """Directory-entry occupancy at the home bank."""

    UNCACHED = "home-uncached"
    SHARED = "home-shared"
    OWNED = "home-owned"
    OVERFLOW = "home-overflow"


class DirEvent(IdentityEnum):
    """Request classes of the bus-op alphabet, as seen by a home bank."""

    REQ_FETCH = "req-fetch"
    REQ_FETCH_EXCL = "req-fetch-excl"
    REQ_UPGRADE = "req-upgrade"
    REQ_WORD = "req-word"
    REQ_CONTROL = "req-control"


#: Total map from every bus operation to its directory event class --
#: the request alphabet the ``directory-completeness`` lint covers.
DIR_EVENT_OF: dict[BusOp, DirEvent] = {
    BusOp.READ_BLOCK: DirEvent.REQ_FETCH,
    BusOp.IO_OUTPUT_READ: DirEvent.REQ_FETCH,
    BusOp.READ_EXCL: DirEvent.REQ_FETCH_EXCL,
    BusOp.READ_LOCK: DirEvent.REQ_FETCH_EXCL,
    BusOp.UPGRADE: DirEvent.REQ_UPGRADE,
    BusOp.WRITE_NO_FETCH: DirEvent.REQ_UPGRADE,
    BusOp.WRITE_WORD: DirEvent.REQ_WORD,
    BusOp.UPDATE_WORD: DirEvent.REQ_WORD,
    BusOp.MEMORY_RMW: DirEvent.REQ_WORD,
    BusOp.FLUSH_BLOCK: DirEvent.REQ_CONTROL,
    BusOp.UNLOCK_BROADCAST: DirEvent.REQ_CONTROL,
    BusOp.MEMORY_LOCK_WRITE: DirEvent.REQ_CONTROL,
    BusOp.IO_INPUT: DirEvent.REQ_CONTROL,
}

#: Two-valued guard families of the directory vocabulary.
DIR_GUARD_FAMILIES: dict[str, tuple[str, str]] = {
    "dir-occupancy": ("dir-peers", "dir-alone"),
    "dir-owner": ("dir-owner-self", "dir-owner-other"),
    "dir-entry": ("dir-overflowed", "dir-precise"),
}

#: Guard-bit order: every directory event consults all three families.
DIR_BIT_FAMILIES: tuple[str, ...] = ("dir-occupancy", "dir-owner",
                                     "dir-entry")

#: Delivery-phase actions that select the probe set.
PROBE_ACTIONS = frozenset({"probe-listed", "probe-all"})

#: The full directory action catalog, by phase.
DELIVERY_ACTIONS = ("enroll", "count-request", "probe-listed",
                    "probe-all")
MEMBERSHIP_ACTIONS = ("refresh",)
ACCOUNTING_ACTIONS = ("count-response", "tally-traffic", "pay-lookup",
                      "pay-round-trip", "pay-forward-hop",
                      "pay-inval-round-trip")
DIR_ACTIONS = DELIVERY_ACTIONS + MEMBERSHIP_ACTIONS + ACCOUNTING_ACTIONS


#: The index spaces of directory tables' guard-bit rows.
DIRECTORY_VOCABULARY = TableVocabulary(
    tuple(HomeState), tuple(DirEvent), DIR_GUARD_FAMILIES,
    lambda event: DIR_BIT_FAMILIES)


class DirectoryTable(TransitionTable):
    """A home-bank transition table.

    Same rule vocabulary, index, ``lookup``, and ``without``/``rewrite``
    mutation helpers as the cache-side tables; only the vocabulary (and
    therefore the shape of the guard-bit rows) differs.
    """

    #: Dispatched on by ``repro.lint.rules.lint_table``.
    table_kind = "directory"
    vocabulary = DIRECTORY_VOCABULARY

    def reachable_states(self) -> frozenset:
        """All four home states.  Next-state edges alone cannot reach
        ``OVERFLOW`` (pointer overflow is a representation event raised
        by ``enroll``, not a request event), and the fabric re-derives
        occupancy from the entry after every refresh -- so every state
        is live whenever a lossy representation is configured, and the
        directory lint demands coverage of the whole matrix."""
        return frozenset(HomeState)

    def _replaced(self, rules: tuple[Rule, ...]) -> "DirectoryTable":
        return DirectoryTable(
            self.name, rules, lost_copy=self.lost_copy,
            machinery_ops=self.machinery_ops,
            transient_states=self.transient_states, errors=self.errors,
        )


def build_home_bank_table() -> DirectoryTable:
    """The default home-bank policy, one row per (state, event).

    Every row enrolls the requester, counts the request, probes, then
    refreshes membership and settles the accounting atoms; precise
    states probe the listed sharers, ``OVERFLOW`` broadcasts.  This is
    exactly the pre-refactor inline policy (the conformance golden pins
    it bit-identical under the full bit vector); representation-specific
    behavior lives entirely in the sharer set the actions operate on.
    """
    common = ("enroll", "count-request")
    settle = ("refresh", "count-response", "tally-traffic", "pay-lookup",
              "pay-round-trip", "pay-forward-hop", "pay-inval-round-trip")
    rows = []
    for state in (HomeState.UNCACHED, HomeState.SHARED, HomeState.OWNED):
        next_state = (HomeState.SHARED if state is HomeState.UNCACHED
                      else state)
        for event in DirEvent:
            rows.append(rule(state, event, next_state,
                             common + ("probe-listed",) + settle))
    for event in DirEvent:
        rows.append(rule(HomeState.OVERFLOW, event, HomeState.OVERFLOW,
                         common + ("probe-all",) + settle))
    return DirectoryTable("directory-home-bank", rows)


#: The registered home-bank policy (the fabric's class-level default;
#: the mc harness patches it like any protocol table).
HOME_BANK_TABLE = build_home_bank_table()


# Bound once: :func:`home_state_of` runs on every transaction, and
# reading a member through its class is a Python-level
# ``EnumType.__getattr__`` call (DESIGN.md section 4).
_UNCACHED, _SHARED, _OWNED, _OVERFLOW = (
    HomeState.UNCACHED, HomeState.SHARED, HomeState.OWNED,
    HomeState.OVERFLOW)


def home_state_of(entry: "DirectoryEntry") -> HomeState:
    """Derive the entry's occupancy state for table dispatch."""
    sharers = entry.sharers
    if sharers.overflowed:
        return _OVERFLOW
    if entry.owner is not None:
        return _OWNED
    if len(sharers):
        return _SHARED
    return _UNCACHED


def guard_bits_of(entry: "DirectoryEntry", requester: "CacheId",
                  peers: bool) -> int:
    """Encode the request's guard context as guard bits
    (bit order per :data:`DIR_BIT_FAMILIES`).  ``peers`` is whether any
    other cache is listed -- the caller computes it from the ports it
    is about to scan anyway."""
    bits = 0
    if peers:
        bits |= 1
    if entry.owner == requester:
        bits |= 2
    if entry.sharers.overflowed:
        bits |= 4
    return bits
