"""Cache-line states.

This is the union of the state vocabularies of every protocol in Table 1,
named after the paper's Section E.1 decomposition: privilege (invalid /
read / write / lock), source, clean/dirty, waiter.  Each protocol uses a
subset (its ``states()``) and decides which of its states carry source
status (Table 1 marks the same state ``N`` in one column and ``S`` in
another -- e.g. Write-Clean is non-source under Yen but source under
Papamarcos & Patel).
"""

from __future__ import annotations

import enum

from repro.common.types import IdentityEnum


class Privilege(enum.Enum):
    INVALID = 0
    READ = 1  # shared-access privilege
    WRITE = 2  # sole-access privilege
    LOCK = 3  # sole-access privilege, locked by this cache


#: Privilege of each state's code (see :class:`CacheState`).
_PRIVILEGE_OF = {
    "I": Privilege.INVALID,
    "R": Privilege.READ,
    "RSC": Privilege.READ,
    "RSD": Privilege.READ,
    "WC": Privilege.WRITE,
    "WD": Privilege.WRITE,
    "L": Privilege.LOCK,
    "LW": Privilege.LOCK,
}
#: Codes of the states whose data is newer than memory's.
_DIRTY_CODES = frozenset({"RSD", "WD", "L", "LW"})


class CacheState(IdentityEnum):
    """Union state space over all protocols reproduced here.

    Each member carries its decomposition as plain attributes, set once
    when the class is built: ``privilege``, and the flags ``valid``,
    ``readable``, ``writable`` (the processor may write without a bus
    transaction), ``locked``, ``dirty`` and ``waiter``.  The caches read
    them on every access and snoop, where a property would cost a
    Python call per read.
    """

    INVALID = "I"
    #: Read privilege, non-source, clean (Goodman's Valid).
    READ = "R"
    #: Read privilege, source, clean (the proposal; last fetcher is source).
    READ_SOURCE_CLEAN = "RSC"
    #: Read privilege, source, dirty (Katz et al.'s dirty-read state).
    READ_SOURCE_DIRTY = "RSD"
    #: Write privilege, clean (Goodman's Reserved / Illinois' Exclusive).
    WRITE_CLEAN = "WC"
    #: Write privilege, dirty (Modified).
    WRITE_DIRTY = "WD"
    #: Lock privilege, source, dirty (the proposal, Section E.3).
    LOCK = "L"
    #: Lock privilege with a recorded waiter (Figure 7).
    LOCK_WAITER = "LW"

    def __init__(self, code: str) -> None:
        privilege = _PRIVILEGE_OF[code]
        self.privilege = privilege
        self.valid = code != "I"
        self.readable = privilege is not Privilege.INVALID
        self.writable = privilege in (Privilege.WRITE, Privilege.LOCK)
        self.locked = privilege is Privilege.LOCK
        self.dirty = code in _DIRTY_CODES
        self.waiter = code == "LW"


#: States a snooping cache may legally hold while *another* cache holds
#: write or lock privilege: none but INVALID (single-writer invariant).
EXCLUSIVE_STATES = frozenset(
    {
        CacheState.WRITE_CLEAN,
        CacheState.WRITE_DIRTY,
        CacheState.LOCK,
        CacheState.LOCK_WAITER,
    }
)

READ_STATES = frozenset(
    {CacheState.READ, CacheState.READ_SOURCE_CLEAN, CacheState.READ_SOURCE_DIRTY}
)
