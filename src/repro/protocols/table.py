"""Declarative transition-table IR for the Table-1 protocols.

Each protocol is a :class:`TransitionTable`: an ordered set of rows
``(state, event, guard) -> (actions, next_state)`` over the existing
``CacheState`` / ``BusOp`` / ``SnoopReply`` vocabulary, executed by the
:class:`TableProtocol` interpreter through the unchanged
:class:`~repro.protocols.base.CoherenceProtocol` hook surface --
``cache.py``, ``engine.py`` and ``mc/`` drive tables and imperative
protocols identically.

The IR is deliberately small:

* **Events** name the occasions a protocol decides something: processor
  accesses (``pr-*``), snooped bus transactions (``sn-*``), block fills
  (``fill-*``), and non-fetch transaction completions (``done-*``).
* **Guards** are frozensets of atoms drawn from two-valued families
  (``shared``/``unshared``, ``dirty-supplier``/``clean-supplier``, ...).
  A row matches when its guard is a subset of the evaluation context;
  the most specific matching row wins, and the linter proves exactly one
  row matches every full context.
* **Actions** are names from a fixed catalog (``supply``, ``flush``,
  ``bus:read-excl``, ``apply-word``, ``refuse-lock``, ...), run in row
  order before the ``next_state`` is applied.

Genuinely procedural machinery stays imperative in the base class and in
small per-protocol overrides: the busy-wait register, multi-phase REBUS
sequencing mechanics, the memory-hold RMW, I/O snoops, and Synapse's
memory source bit.  Everything a state diagram would show lives in the
tables, which is what makes them lintable (:mod:`repro.lint`) and
renderable (``repro diagram``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, ClassVar, Iterable, Mapping

from repro.bus.signals import SnoopReply
from repro.bus.transaction import BusOp, BusTransaction
from repro.cache.state import CacheState
from repro.common.errors import ProgramError, ProtocolError
from repro.common.types import Stamp, WordAddr
from repro.processor.isa import OpKind
from repro.protocols.base import (
    Action,
    CoherenceProtocol,
    Done,
    NeedBus,
    Outcome,
    TxnResult,
)
from repro.sim.events import EventKind

if TYPE_CHECKING:
    from repro.cache.cache import PendingAccess, SnoopingCache
    from repro.cache.line import CacheLine


class Event(enum.Enum):
    """Occasions on which a transition-table row is consulted."""

    # Processor-side accesses (the ``processor_*`` hooks).
    PR_READ = "pr-read"
    PR_WRITE = "pr-write"
    PR_LOCK = "pr-lock"
    PR_UNLOCK = "pr-unlock"
    PR_WRITE_BLOCK = "pr-write-block"
    #: Atomic read-modify-write.  Documentation rows only: the RMW
    #: machinery in ``cache.py`` sequences lock-state / cache-hold /
    #: memory-hold RMWs procedurally (Feature 6); the rows record which
    #: bus operations that machinery issues so the alphabet, Table-1
    #: derivation, and diagrams see them.
    PR_RMW = "pr-rmw"

    # Snooper side (another cache's granted transaction, valid line).
    SN_READ = "sn-read"
    SN_EXCL = "sn-excl"
    SN_UPGRADE = "sn-upgrade"
    SN_WRITE_WORD = "sn-write-word"
    SN_UPDATE_WORD = "sn-update-word"
    SN_WRITE_NO_FETCH = "sn-write-no-fetch"

    # Requester side: state installed for a fetched block.
    FILL_READ = "fill-read"
    FILL_EXCL = "fill-excl"
    FILL_LOCK = "fill-lock"

    # Requester side: completion of a non-fetch transaction.
    DONE_UPGRADE = "done-upgrade"
    DONE_WRITE_WORD = "done-write-word"
    DONE_UPDATE_WORD = "done-update-word"
    DONE_WRITE_NO_FETCH = "done-write-no-fetch"


PROCESSOR_EVENTS = frozenset({
    Event.PR_READ, Event.PR_WRITE, Event.PR_LOCK, Event.PR_UNLOCK,
    Event.PR_WRITE_BLOCK, Event.PR_RMW,
})
SNOOP_EVENTS = frozenset({
    Event.SN_READ, Event.SN_EXCL, Event.SN_UPGRADE, Event.SN_WRITE_WORD,
    Event.SN_UPDATE_WORD, Event.SN_WRITE_NO_FETCH,
})
FILL_EVENTS = frozenset({Event.FILL_READ, Event.FILL_EXCL, Event.FILL_LOCK})
DONE_EVENTS = frozenset({
    Event.DONE_UPGRADE, Event.DONE_WRITE_WORD, Event.DONE_UPDATE_WORD,
    Event.DONE_WRITE_NO_FETCH,
})

#: Bus operation -> snoop event consulted in the *other* caches.
SNOOP_EVENT: dict[BusOp, Event] = {
    BusOp.READ_BLOCK: Event.SN_READ,
    BusOp.READ_EXCL: Event.SN_EXCL,
    BusOp.READ_LOCK: Event.SN_EXCL,
    BusOp.UPGRADE: Event.SN_UPGRADE,
    BusOp.WRITE_WORD: Event.SN_WRITE_WORD,
    BusOp.MEMORY_RMW: Event.SN_WRITE_WORD,
    BusOp.UPDATE_WORD: Event.SN_UPDATE_WORD,
    BusOp.WRITE_NO_FETCH: Event.SN_WRITE_NO_FETCH,
}

#: Fetching bus operation -> fill event in the requester.
FILL_EVENT: dict[BusOp, Event] = {
    BusOp.READ_BLOCK: Event.FILL_READ,
    BusOp.READ_EXCL: Event.FILL_EXCL,
    BusOp.READ_LOCK: Event.FILL_LOCK,
}

#: Non-fetch bus operation -> completion event in the requester.
DONE_EVENT: dict[BusOp, Event] = {
    BusOp.UPGRADE: Event.DONE_UPGRADE,
    BusOp.WRITE_WORD: Event.DONE_WRITE_WORD,
    BusOp.UPDATE_WORD: Event.DONE_UPDATE_WORD,
    BusOp.WRITE_NO_FETCH: Event.DONE_WRITE_NO_FETCH,
}

# -- guards -----------------------------------------------------------------

#: Two-valued guard families.  A guard is a frozenset of atoms; at most
#: one atom per family, and a row matches when its guard is a subset of
#: the context (which carries exactly one atom per applicable family).
GUARD_FAMILIES: dict[str, tuple[str, str]] = {
    # processor-side context
    "hint": ("hint", "no-hint"),                     # compiler private hint
    "interleave": ("wrote-last", "first-write"),     # Rudolph-Segall tracker
    # fill/done-side context
    "intent": ("writish", "readish"),                # pending op writes?
    "sharing": ("shared", "unshared"),               # response.shared_hit
    "supplier": ("dirty-supplier", "clean-supplier"),
    "lock-intent": ("lock-intent", "no-lock-intent"),
    "mem-lock": ("mem-owner", "mem-other"),          # spilled-lock owner
    "mem-waiter": ("mem-waiter", "no-mem-waiter"),
    "wait-win": ("won-wait", "not-won-wait"),        # busy-wait grant
}

ATOM_FAMILY: dict[str, str] = {
    atom: family for family, atoms in GUARD_FAMILIES.items() for atom in atoms
}

#: Which guard families each event class may consult.
PROCESSOR_GUARD_FAMILIES = frozenset({"hint", "interleave"})
COMPLETION_GUARD_FAMILIES = frozenset({
    "intent", "sharing", "supplier", "lock-intent", "mem-lock",
    "mem-waiter", "wait-win",
})
SNOOP_GUARD_FAMILIES: frozenset[str] = frozenset()


def guard_families_for(event: Event) -> frozenset[str]:
    if event in PROCESSOR_EVENTS:
        return PROCESSOR_GUARD_FAMILIES
    if event in SNOOP_EVENTS:
        return SNOOP_GUARD_FAMILIES
    return COMPLETION_GUARD_FAMILIES


# -- guard bits -------------------------------------------------------------

#: Bit order of the processor-event guard families.  Bit ``i`` set means
#: the context carries ``GUARD_FAMILIES[family][0]``.
PROCESSOR_BIT_FAMILIES: tuple[str, ...] = ("hint", "interleave")
#: Bit order of the completion-event guard families, matching the bits
#: ``TableProtocol._lookup_completion`` sets.
COMPLETION_BIT_FAMILIES: tuple[str, ...] = (
    "intent", "sharing", "supplier", "lock-intent", "mem-lock",
    "mem-waiter", "wait-win",
)

assert frozenset(PROCESSOR_BIT_FAMILIES) == PROCESSOR_GUARD_FAMILIES
assert frozenset(COMPLETION_BIT_FAMILIES) == COMPLETION_GUARD_FAMILIES


def bit_families_for(event: Event) -> tuple[str, ...]:
    """The ordered guard-bit families of ``event``'s class."""
    families = guard_families_for(event)
    if families is PROCESSOR_GUARD_FAMILIES:
        return PROCESSOR_BIT_FAMILIES
    if families is COMPLETION_GUARD_FAMILIES:
        return COMPLETION_BIT_FAMILIES
    return ()


class TableVocabulary:
    """The index spaces a table's guard-bit rows are built over.

    A full guard context is one integer: bit ``i`` is 1 when the context
    carries the *first* atom of the event's ``i``-th bit family
    (``hint``, ``shared``, ...) and 0 for the second.  The cache-side
    tables use :data:`CACHE_VOCABULARY`; the directory home-bank table
    (:mod:`repro.directory_backend.table`) supplies its own.
    """

    def __init__(self, states, events, guard_families,
                 bit_families_for) -> None:
        self.states = tuple(states)
        self.events = tuple(events)
        self.guard_families = dict(guard_families)
        self.bit_families_for = bit_families_for
        self.state_index = {s: i for i, s in enumerate(self.states)}
        self.event_index = {e: i for i, e in enumerate(self.events)}
        self.n_events = len(self.events)

    def context_of_bits(self, event, bits: int) -> frozenset[str]:
        """The full guard context encoded by ``bits`` for ``event``."""
        atoms = []
        for i, family in enumerate(self.bit_families_for(event)):
            positive, negative = self.guard_families[family]
            atoms.append(positive if bits & (1 << i) else negative)
        return frozenset(atoms)


#: The cache-side protocol vocabulary.
CACHE_VOCABULARY = TableVocabulary(
    tuple(CacheState), tuple(Event), GUARD_FAMILIES, bit_families_for)


# -- actions ----------------------------------------------------------------

#: Bus-request suffix (``bus:<name>`` / ``rebus:<name>``) -> operation.
BUS_REQUESTS: dict[str, BusOp] = {
    "read": BusOp.READ_BLOCK,
    "read-excl": BusOp.READ_EXCL,
    "read-lock": BusOp.READ_LOCK,
    "upgrade": BusOp.UPGRADE,
    "write-word": BusOp.WRITE_WORD,
    "update-word": BusOp.UPDATE_WORD,
    "update-word-inval": BusOp.UPDATE_WORD,
    "write-no-fetch": BusOp.WRITE_NO_FETCH,
    "mem-rmw": BusOp.MEMORY_RMW,
}

#: Plain (non-``bus:``/``rebus:``/``error:``) actions, per event class.
PROCESSOR_ACTIONS = frozenset({
    "hit",               # marker: the access completes locally
    "apply-local-write",  # write-through: word + oracle apply at issue
    "lock-in-place",     # zero-time cache-state lock (Figure 6)
    "apply-write",       # cache.apply_write (unlock's final write)
    "broadcast-unlock",  # queue a detached UNLOCK_BROADCAST
    "trace-unlock",      # emit the lock-release trace event
})
SNOOP_ACTIONS = frozenset({
    "supply",        # supply the block, dirty status travelling along
    "supply-clean",  # supply the block as clean (flush-on-transfer family)
    "arbitrate",     # potential read source, arbitration picks one
    "flush",         # write the block back to memory (dirty status kept)
    "flush-clean",   # write back and hand over clean
    "refuse-lock",   # Figure 7: locked holder refuses, records the waiter
    "apply-update",  # absorb a foreign word update
    "mem-source-on",  # set the per-block memory source bit (Synapse)
})
COMPLETION_ACTIONS = frozenset({
    "apply-word",     # write the transaction word into the line
    "write-memory",   # write the transaction word through to memory
    "oracle-write",   # serialize the write in the verification oracle
    "mark-wrote",     # set the Rudolph-Segall interleaving tracker
    "mem-source-off",  # clear the per-block memory source bit (Synapse)
})


_ACTION_KIND_CACHE: dict[str, str] = {}


def action_kind(action: str) -> str:
    """Classify an action atom: ``bus``, ``rebus``, ``error`` or ``plain``."""
    kind = _ACTION_KIND_CACHE.get(action)
    if kind is None:
        kind = "plain"
        for prefix in ("bus", "rebus", "error"):
            if action.startswith(prefix + ":"):
                kind = prefix
                break
        _ACTION_KIND_CACHE[action] = kind
    return kind


def known_actions_for(event: Event) -> frozenset[str]:
    if event in PROCESSOR_EVENTS:
        return PROCESSOR_ACTIONS
    if event in SNOOP_EVENTS:
        return SNOOP_ACTIONS
    return COMPLETION_ACTIONS


# -- rows -------------------------------------------------------------------


@dataclass(frozen=True)
class Rule:
    """One table row: ``(state, event, guard) -> (actions, next_state)``.

    ``next_state`` is authoritative for snoop, fill, done, lock and
    unlock rows; for the remaining processor rows it documents the state
    the shared machinery produces (``apply_write`` marking a clean line
    dirty, a bus request leaving the state untouched until completion).
    """

    state: CacheState
    event: Event
    next_state: CacheState
    actions: tuple[str, ...] = ()
    guard: frozenset[str] = frozenset()

    def matches(self, ctx: frozenset[str]) -> bool:
        return self.guard <= ctx

    def describe(self) -> str:
        guard = "{" + ",".join(sorted(self.guard)) + "}" if self.guard else "*"
        acts = ",".join(self.actions) or "-"
        return (f"({self.state.value}, {self.event.value}, {guard}) -> "
                f"[{acts}] {self.next_state.value}")


def rule(state: CacheState, event: Event, next_state: CacheState,
         actions: Iterable[str] = (), when: Iterable[str] = ()) -> Rule:
    """Convenience constructor used by the protocol table modules."""
    return Rule(state=state, event=event, next_state=next_state,
                actions=tuple(actions), guard=frozenset(when))


class TransitionTable:
    """A protocol's full transition relation plus its procedural footnotes.

    ``lost_copy`` maps queued bus operations that presuppose a valid
    local copy to the refetch issued when the copy was invalidated while
    the request waited (the revalidation path).  ``machinery_ops`` lists
    bus operations issued by shared machinery outside the table (e.g.
    the test-and-set lowering's UPGRADE/READ_EXCL, the memory-hold RMW)
    so the linter demands snoop/fill/done coverage for them.
    ``transient_states`` are intermediate states the machinery converts
    in zero time (never observable on a snoop).  ``errors`` hold the
    message templates of ``error:<key>`` actions.

    Execution goes through :meth:`lookup_bits`, which probes rows
    precomputed once per table over its :attr:`vocabulary`;
    :meth:`lookup` is the reference guard scan the linter, the diagrams
    and the equivalence tests use.
    """

    #: Index spaces of :meth:`guard_rows`.
    vocabulary: ClassVar[TableVocabulary] = CACHE_VOCABULARY

    def __init__(self, name: str, rules: Iterable[Rule], *,
                 lost_copy: Mapping[BusOp, BusOp] | None = None,
                 machinery_ops: Iterable[BusOp] = (),
                 transient_states: Iterable[CacheState] = (),
                 errors: Mapping[str, str] | None = None) -> None:
        self.name = name
        self.rules: tuple[Rule, ...] = tuple(rules)
        self.lost_copy: dict[BusOp, BusOp] = dict(lost_copy or {})
        self.machinery_ops: frozenset[BusOp] = frozenset(machinery_ops)
        self.transient_states: frozenset[CacheState] = frozenset(
            transient_states)
        self.errors: dict[str, str] = dict(errors or {})
        index: dict[tuple[CacheState, Event], list[Rule]] = {}
        for r in self.rules:
            index.setdefault((r.state, r.event), []).append(r)
        # Most-specific guard first: the unguarded row is the fallback.
        self._index: dict[tuple[CacheState, Event], tuple[Rule, ...]] = {
            key: tuple(sorted(bucket, key=lambda r: -len(r.guard)))
            for key, bucket in index.items()
        }
        self._rows: list[list[Rule | None] | None] | None = None

    # -- lookup ----------------------------------------------------------

    def rules_for(self, state: CacheState, event: Event) -> tuple[Rule, ...]:
        return self._index.get((state, event), ())

    def lookup(self, state: CacheState, event: Event,
               ctx: frozenset[str]) -> Rule:
        """The reference scan: the most specific row whose guard is a
        subset of ``ctx`` (which may be partial)."""
        bucket = self._index.get((state, event))
        if bucket:
            for r in bucket:
                if r.matches(ctx):
                    return r
        raise self._missing(state, event, ctx)

    def guard_rows(self) -> list[list[Rule | None] | None]:
        """``rows[state_idx * n_events + event_idx][bits]``: the row
        :meth:`lookup` picks for each full guard context (``None`` where
        it would raise; a ``None`` cell for an empty bucket).  Built on
        first use and cached: tables are immutable, the mutation helpers
        return fresh instances."""
        if self._rows is None:
            vocab = self.vocabulary
            rows: list[list[Rule | None] | None] = []
            for state in vocab.states:
                for event in vocab.events:
                    bucket = self.rules_for(state, event)
                    if not bucket:
                        rows.append(None)
                        continue
                    cell: list[Rule | None] = []
                    for bits in range(2 ** len(vocab.bit_families_for(event))):
                        ctx = vocab.context_of_bits(event, bits)
                        cell.append(next(
                            (r for r in bucket if r.guard <= ctx), None))
                    rows.append(cell)
            self._rows = rows
        return self._rows

    def lookup_bits(self, state, event, bits: int) -> Rule:
        """:meth:`lookup` of the full context ``bits`` encodes: two list
        probes, the same :class:`ProtocolError` for a missing row."""
        rows = self._rows
        if rows is None:
            rows = self.guard_rows()
        vocab = self.vocabulary
        cell = rows[vocab.state_index[state] * vocab.n_events
                    + vocab.event_index[event]]
        row = cell[bits] if cell is not None else None
        if row is None:
            raise self._missing(state, event,
                                vocab.context_of_bits(event, bits))
        return row

    def _missing(self, state, event, ctx: frozenset[str]) -> ProtocolError:
        atoms = "{" + ",".join(sorted(ctx)) + "}"
        return ProtocolError(
            f"{self.name}: no transition for state {state.value!r} on "
            f"{event.value} under {atoms}"
        )

    # -- structure queries (shared by interpreter, linter, diagrams) -----

    def has_event(self, event: Event) -> bool:
        return any(r.event is event for r in self.rules)

    @property
    def has_lock_rows(self) -> bool:
        return self.has_event(Event.PR_LOCK) or self.has_event(Event.PR_UNLOCK)

    @property
    def has_lock_states(self) -> bool:
        locked = (CacheState.LOCK, CacheState.LOCK_WAITER)
        return any(r.state in locked or r.next_state in locked
                   for r in self.rules)

    def states_mentioned(self) -> frozenset[CacheState]:
        return frozenset({r.state for r in self.rules}
                         | {r.next_state for r in self.rules})

    def issued_ops(self) -> frozenset[BusOp]:
        """Every bus operation this protocol can put on the bus."""
        ops = set(self.machinery_ops)
        for r in self.rules:
            for action in r.actions:
                kind = action_kind(action)
                if kind in ("bus", "rebus"):
                    ops.add(BUS_REQUESTS[action.split(":", 1)[1]])
        return frozenset(ops)

    def reachable_states(self) -> frozenset[CacheState]:
        """Fixpoint of ``next_state`` edges from INVALID."""
        reachable = {CacheState.INVALID}
        changed = True
        while changed:
            changed = False
            for r in self.rules:
                if r.state in reachable and r.next_state not in reachable:
                    reachable.add(r.next_state)
                    changed = True
        return frozenset(reachable)

    # -- mutation helpers (the mc harness edits rows, not code) ----------

    def _select(self, state: CacheState, event: Event,
                when: str | None) -> Callable[[Rule], bool]:
        def match(r: Rule) -> bool:
            return (r.state is state and r.event is event
                    and (when is None or when in r.guard))
        return match

    def without(self, state: CacheState, event: Event, *,
                when: str | None = None) -> "TransitionTable":
        """A copy with the matching row(s) removed."""
        match = self._select(state, event, when)
        kept = tuple(r for r in self.rules if not match(r))
        if len(kept) == len(self.rules):
            raise ValueError(f"{self.name}: no row matches "
                             f"({state.value}, {event.value}, {when})")
        return self._replaced(kept)

    def rewrite(self, state: CacheState, event: Event, *,
                when: str | None = None,
                next_state: CacheState | None = None,
                actions: tuple[str, ...] | None = None,
                drop_actions: Iterable[str] = ()) -> "TransitionTable":
        """A copy with the matching row(s) edited."""
        match = self._select(state, event, when)
        drop = frozenset(drop_actions)
        out, hit = [], False
        for r in self.rules:
            if match(r):
                hit = True
                new_actions = actions if actions is not None else r.actions
                new_actions = tuple(a for a in new_actions if a not in drop)
                out.append(replace(
                    r, actions=new_actions,
                    next_state=next_state if next_state is not None
                    else r.next_state,
                ))
            else:
                out.append(r)
        if not hit:
            raise ValueError(f"{self.name}: no row matches "
                             f"({state.value}, {event.value}, {when})")
        return self._replaced(tuple(out))

    def _replaced(self, rules: tuple[Rule, ...]) -> "TransitionTable":
        return TransitionTable(
            self.name, rules, lost_copy=self.lost_copy,
            machinery_ops=self.machinery_ops,
            transient_states=self.transient_states, errors=self.errors,
        )


# -- feature derivation (satellite: Table 1 from the tables) ----------------


def derive_states(table: TransitionTable) -> frozenset[CacheState]:
    """States the protocol inhabits (transient machinery states excluded)."""
    return table.states_mentioned() - table.transient_states


def derive_bus_invalidate_signal(table: TransitionTable) -> bool:
    """Feature 4: a write hit on a read-privilege copy requests write
    privilege with a one-cycle invalidation instead of writing through."""
    for r in table.rules:
        if r.event is not Event.PR_WRITE:
            continue
        if not (r.state.readable and not r.state.writable):
            continue
        if any(a in ("bus:upgrade", "bus:read-excl") for a in r.actions):
            return True
    return False


def derive_atomic_rmw(table: TransitionTable) -> bool:
    """Feature 6: the protocol declares an atomic RMW path."""
    return table.has_event(Event.PR_RMW)


# -- the interpreter --------------------------------------------------------

#: Op kinds whose completion context carries the ``writish`` atom.
_WRITISH_KINDS = frozenset({OpKind.WRITE, OpKind.RELEASE})


class TableProtocol(CoherenceProtocol):
    """Executes a :class:`TransitionTable` through the base hook surface.

    Subclasses set :attr:`table` (and ``name``/``features()``), and may
    override :meth:`after_fill` or individual hooks for the genuinely
    procedural remnants of their protocol.
    """

    table: ClassVar[TransitionTable]

    def __init__(self, cache: "SnoopingCache") -> None:
        super().__init__(cache)
        # Resolved per instance so a class-level ``table`` patch (the mc
        # mutation harness) is honoured by instances created under it.
        self._table = self.table
        self._table.guard_rows()

    # -- lookup seams ----------------------------------------------------
    # The three call shapes through which every table probe flows.  Each
    # encodes its guard context as bits in the order of
    # PROCESSOR_BIT_FAMILIES / COMPLETION_BIT_FAMILIES (snoops consult
    # no guards) and probes the table's guard-bit rows.

    def _lookup_processor(self, state: CacheState, event: Event,
                          addr: WordAddr, private_hint: bool) -> Rule:
        cache = self.cache
        bits = 1 if private_hint else 0
        if cache.scratch and cache.scratch.get(
                ("rs-wrote", cache.block_of(addr)), False):
            bits |= 2
        return self._table.lookup_bits(state, event, bits)

    def _lookup_completion(self, state: CacheState, event: Event,
                           pending: "PendingAccess", txn: BusTransaction,
                           response) -> Rule:
        bits = 0
        if pending.op.kind in _WRITISH_KINDS:
            bits |= 1
        if response.shared_hit:
            bits |= 2
        if response.supplier_dirty:
            bits |= 4
        if txn.lock_intent:
            bits |= 8
        if response.memory_lock_owner:
            bits |= 16
        if response.memory_lock_waiter:
            bits |= 32
        if txn.high_priority:
            bits |= 64
        return self._table.lookup_bits(state, event, bits)

    def _lookup_snoop(self, state: CacheState, event: Event) -> Rule:
        return self._table.lookup_bits(state, event, 0)

    # -- processor side --------------------------------------------------

    def processor_read(self, line: "CacheLine | None", addr: WordAddr,
                       private_hint: bool = False) -> Action:
        return self._processor_access(Event.PR_READ, line, addr, None,
                                      private_hint)

    def processor_write(self, line: "CacheLine | None", addr: WordAddr,
                        stamp: Stamp) -> Action:
        return self._processor_access(Event.PR_WRITE, line, addr, stamp)

    def processor_lock(self, line: "CacheLine | None",
                       addr: WordAddr) -> Action:
        if not self.table.has_event(Event.PR_LOCK):
            return super().processor_lock(line, addr)
        return self._processor_access(Event.PR_LOCK, line, addr, None)

    def processor_unlock(self, line: "CacheLine | None", addr: WordAddr,
                         stamp: Stamp) -> Action:
        if not self.table.has_event(Event.PR_UNLOCK):
            return super().processor_unlock(line, addr, stamp)
        return self._processor_access(Event.PR_UNLOCK, line, addr, stamp)

    def processor_write_block(self, line: "CacheLine | None",
                              addr: WordAddr) -> Action:
        return self._processor_access(Event.PR_WRITE_BLOCK, line, addr, None)

    def _processor_access(self, event: Event, line: "CacheLine | None",
                          addr: WordAddr, stamp: Stamp | None,
                          private_hint: bool = False) -> Action:
        state = line.state if line is not None else CacheState.INVALID
        row = self._lookup_processor(state, event, addr, private_hint)
        request: NeedBus | None = None
        for action in row.actions:
            kind = action_kind(action)
            if kind == "bus":
                request = self._build_request(action.split(":", 1)[1],
                                              event, addr, stamp)
            elif kind == "error":
                self._raise_table_error(action.split(":", 1)[1], addr, state)
            else:
                self._run_processor_action(action, line, addr, stamp)
        if request is not None:
            return request
        # Lock and unlock transitions happen in zero time at the
        # processor (Figure 6/8); the other processor rows leave state
        # application to the shared write machinery.
        if event in (Event.PR_LOCK, Event.PR_UNLOCK) and line is not None:
            line.state = row.next_state
        if event in (Event.PR_READ, Event.PR_LOCK):
            assert line is not None
            return Done(value=line.read_word(self.cache.offset(addr)))
        if event is Event.PR_UNLOCK:
            return Done(write_applied=True)
        return Done()

    def _raise_table_error(self, key: str, addr: WordAddr,
                           state: CacheState) -> None:
        template = self.table.errors[key]
        raise ProgramError(template.format(
            name=self.name, cache=self.cache.id,
            block=self.cache.block_of(addr), state=state,
        ))

    def _run_processor_action(self, action: str, line: "CacheLine | None",
                              addr: WordAddr, stamp: Stamp | None) -> None:
        cache = self.cache
        if action == "hit":
            return
        if action == "apply-local-write":
            assert line is not None and stamp is not None
            line.write_word(cache.offset(addr), stamp)
            if cache.oracle is not None:
                cache.oracle.record_write(addr, stamp)
            return
        if action == "lock-in-place":
            assert line is not None
            line.state = CacheState.LOCK
            cache.trace.emit(cache.now(), EventKind.LOCK, cache=cache.id,
                             block=line.block, action="locked-in-place")
            return
        if action == "apply-write":
            assert line is not None and stamp is not None
            cache.apply_write(line, addr, stamp)
            return
        if action == "broadcast-unlock":
            assert line is not None
            cache.queue_detached(NeedBus(op=BusOp.UNLOCK_BROADCAST),
                                 line.block)
            if cache.obs.active:
                cache.obs.record_unlock_queued(cache.id, line.block,
                                               cache.now())
            return
        if action == "trace-unlock":
            assert line is not None
            cache.trace.emit(cache.now(), EventKind.LOCK, cache=cache.id,
                             block=line.block, action="unlocked")
            return
        raise ProtocolError(f"{self.name}: unknown processor action "
                            f"{action!r}")

    def _build_request(self, name: str, event: Event, addr: WordAddr,
                       stamp: Stamp | None) -> NeedBus:
        op = BUS_REQUESTS[name]
        if name == "read-lock":
            return NeedBus(op=op, lock_intent=True)
        if name == "upgrade":
            return NeedBus(op=op, lock_intent=event is Event.PR_LOCK)
        if name in ("write-word", "update-word", "update-word-inval"):
            return NeedBus(op=op, word=addr, stamp=stamp,
                           update_invalid=name == "update-word-inval")
        return NeedBus(op=op)

    # -- requester side --------------------------------------------------

    def revalidate_request(self, need: NeedBus, block) -> NeedBus:
        refetch = self.table.lost_copy.get(need.op)
        if refetch is not None and self.cache.line_for(block) is None:
            return NeedBus(op=refetch)
        return super().revalidate_request(need, block)

    def after_txn(self, pending: "PendingAccess", txn: BusTransaction,
                  response, data: list[Stamp] | None) -> TxnResult:
        table = self.table
        op = txn.op

        if (op is BusOp.WRITE_NO_FETCH
                and table.has_event(Event.DONE_WRITE_NO_FETCH)):
            line = self.cache.line_for(txn.block)
            state = line.state if line is not None else CacheState.INVALID
            row = self._lookup_completion(state, Event.DONE_WRITE_NO_FETCH,
                                          pending, txn, response)
            blank = [0] * self.cache.config.words_per_block
            self.cache.install_block(txn.block, row.next_state, blank)
            return TxnResult(Outcome.DONE)

        if op is BusOp.UPGRADE and table.has_event(Event.DONE_UPGRADE):
            line = self.cache.line_for(txn.block)
            if line is None:
                row = self._lookup_completion(
                    CacheState.INVALID, Event.DONE_UPGRADE,
                    pending, txn, response)
                rebus = self._rebus_request(row, pending, txn)
                assert rebus is not None
                return TxnResult(Outcome.REBUS, rebus)
            if table.has_lock_states and response.locked:
                return TxnResult(Outcome.WAIT_LOCK)
            row = self._lookup_completion(line.state, Event.DONE_UPGRADE,
                                          pending, txn, response)
            self._run_completion_actions(row, line, txn)
            line.state = row.next_state
            return TxnResult(Outcome.DONE)

        if op.fetches_block and op in FILL_EVENT:
            if response.locked or response.memory_locked:
                return TxnResult(Outcome.WAIT_LOCK)
            row = self._lookup_completion(CacheState.INVALID, FILL_EVENT[op],
                                          pending, txn, response)
            assert data is not None
            line = self.cache.install_block(txn.block, row.next_state, data)
            rebus = self._rebus_request(row, pending, txn)
            if rebus is not None:
                return TxnResult(Outcome.REBUS, rebus)
            self._run_completion_actions(row, line, txn)
            self.after_fill(pending, line)
            return TxnResult(Outcome.DONE)

        if op in (BusOp.WRITE_WORD, BusOp.UPDATE_WORD):
            event = DONE_EVENT[op]
            if not table.has_event(event):
                return super().after_txn(pending, txn, response, data)
            line = self.cache.line_for(txn.block)
            state = line.state if line is not None else CacheState.INVALID
            row = self._lookup_completion(state, event,
                                          pending, txn, response)
            rebus = self._rebus_request(row, pending, txn)
            if rebus is not None:
                return TxnResult(Outcome.REBUS, rebus)
            self._run_completion_actions(row, line, txn)
            if line is not None:
                line.state = row.next_state
            pending.write_applied = True
            return TxnResult(Outcome.DONE)

        return super().after_txn(pending, txn, response, data)

    def after_fill(self, pending: "PendingAccess",
                   line: "CacheLine") -> None:
        """Procedural epilogue after a block fill completed (hook for
        multi-phase remnants, e.g. unlocking a refetched spilled lock)."""

    def _rebus_request(self, row: Rule, pending: "PendingAccess",
                       txn: BusTransaction) -> NeedBus | None:
        for action in row.actions:
            if action_kind(action) != "rebus":
                continue
            name = action.split(":", 1)[1]
            op = BUS_REQUESTS[name]
            if name == "read-lock":
                return NeedBus(op=op, lock_intent=True)
            if name in ("write-word", "update-word", "update-word-inval"):
                assert (pending.op.addr is not None
                        and pending.op.stamp is not None)
                return NeedBus(op=op, word=pending.op.addr,
                               stamp=pending.op.stamp,
                               update_invalid=name == "update-word-inval")
            return NeedBus(op=op, lock_intent=txn.lock_intent)
        return None

    def _run_completion_actions(self, row: Rule, line: "CacheLine | None",
                                txn: BusTransaction) -> None:
        cache = self.cache
        for action in row.actions:
            if action_kind(action) != "plain":
                continue
            if action == "apply-word":
                assert (line is not None and txn.word is not None
                        and txn.stamp is not None)
                line.write_word(cache.offset(txn.word), txn.stamp)
            elif action == "write-memory":
                assert txn.word is not None and txn.stamp is not None
                if cache.memory is not None:
                    cache.memory.write_word(
                        txn.block, cache.offset(txn.word), txn.stamp)
            elif action == "oracle-write":
                assert txn.word is not None and txn.stamp is not None
                if cache.oracle is not None:
                    cache.oracle.record_write(txn.word, txn.stamp)
            elif action == "mark-wrote":
                cache.scratch[("rs-wrote", txn.block)] = True
            elif action == "mem-source-off":
                if cache.memory is not None:
                    cache.memory.set_memory_source(txn.block, False)
            else:
                raise ProtocolError(f"{self.name}: unknown completion "
                                    f"action {action!r}")

    # -- snooper side ----------------------------------------------------

    def snoop_read(self, line: "CacheLine",
                   txn: BusTransaction) -> SnoopReply:
        return self._snoop_table(Event.SN_READ, line, txn)

    def snoop_exclusive(self, line: "CacheLine",
                        txn: BusTransaction) -> SnoopReply:
        if txn.op is BusOp.IO_INPUT:
            # I/O input takes the block away without a cache supplying it
            # (Section E.2); identical across protocols, kept procedural.
            reply = SnoopReply(hit=True, dirty=line.state.dirty)
            self.cache.invalidate_line(line)
            return reply
        if txn.op is BusOp.UPGRADE:
            event = Event.SN_UPGRADE
        elif txn.op is BusOp.WRITE_NO_FETCH:
            event = Event.SN_WRITE_NO_FETCH
        else:
            event = Event.SN_EXCL
        return self._snoop_table(event, line, txn)

    def snoop_word_write(self, line: "CacheLine",
                         txn: BusTransaction) -> SnoopReply:
        event = (Event.SN_UPDATE_WORD if txn.op is BusOp.UPDATE_WORD
                 else Event.SN_WRITE_WORD)
        return self._snoop_table(event, line, txn)

    def _snoop_table(self, event: Event, line: "CacheLine",
                     txn: BusTransaction) -> SnoopReply:
        row = self._lookup_snoop(line.state, event)
        reply = SnoopReply(hit=True)
        for action in row.actions:
            self._run_snoop_action(action, reply, line, txn)
        if row.next_state is CacheState.INVALID:
            self.cache.invalidate_line(line)
        elif row.next_state is not line.state:
            line.state = row.next_state
        return reply

    def _run_snoop_action(self, action: str, reply: SnoopReply,
                          line: "CacheLine", txn: BusTransaction) -> None:
        cache = self.cache
        if action in ("supply", "supply-clean"):
            reply.supplies = True
            reply.dirty = False if action == "supply-clean" else line.state.dirty
            reply.data = line.snapshot()
            reply.supply_words_moved = cache.supply_words_moved(line)
            return
        if action == "arbitrate":
            reply.arbitrates = True
            reply.dirty = False
            reply.data = line.snapshot()
            reply.supply_words_moved = cache.supply_words_moved(line)
            return
        if action in ("flush", "flush-clean"):
            reply.flush_words = line.snapshot()
            if action == "flush-clean":
                reply.dirty = False
            return
        if action == "refuse-lock":
            reply.locked = True
            cache.trace.emit(cache.now(), EventKind.LOCK, cache=cache.id,
                             block=line.block, action="waiter-recorded")
            return
        if action == "apply-update":
            assert txn.word is not None and txn.stamp is not None
            cache.apply_foreign_update(line, txn.word, txn.stamp)
            return
        if action == "mem-source-on":
            if cache.memory is not None:
                cache.memory.set_memory_source(line.block, True)
            return
        raise ProtocolError(f"{self.name}: unknown snoop action {action!r}")
