"""Directory-based coherence backend (the ``directory`` topology kind).

Replaces broadcast snooping with per-block directory state held at home
banks: every transaction serializes at its block's home bank, which
forwards it point-to-point only to the caches the directory lists as
holding (or waiting on) the block, instead of broadcasting to all N.
The protocols themselves -- their transition tables, the linter, the
model checker, and the table lookup -- apply unchanged: the directory
is purely a delivery fabric that prunes snoops the filtered caches would
have answered with a miss anyway.  The home-bank policy itself is
TransitionTable IR (:mod:`repro.directory_backend.table`), and the
per-block sharer tracking is one of three pluggable representations
(:mod:`repro.directory_backend.representations`).
"""

from repro.common.lazy import lazy_exports

# The fabric builder resolves ``DirectorySystem`` only for a directory
# topology, so a snoop, multibus or clustered run loads none of this
# package.
__all__ = lazy_exports(globals(), {
    "representations": ("DIRECTORY_ENTRY_KINDS", "CoarseVector",
                        "FullBitVector", "LimitedPointerSet", "SharerSet",
                        "bits_per_block"),
    "state": ("DirectoryEntry", "DirectoryState"),
    "system": ("DirectoryFabric", "DirectorySystem"),
    "table": ("HOME_BANK_TABLE", "DirectoryTable", "DirEvent", "HomeState",
              "build_home_bank_table"),
})
