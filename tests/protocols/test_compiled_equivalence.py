"""Table-lookup equivalence: the guard-bit rows ARE the reference scan.

Each table compiles, once, a row per ``(state, event)`` holding the
winner of every full guard context (:meth:`TransitionTable.guard_rows`),
and every run executes through :meth:`TransitionTable.lookup_bits`.
For all ten protocol tables and the directory home-bank table, every
``(state, event, guard bits)`` cell must agree exactly with the
reference scan :meth:`TransitionTable.lookup` over the context those
bits encode: the same winning row, or a :class:`ProtocolError` from
both with the *identical* message naming the missing transition.
"""

from __future__ import annotations

import pytest

from repro.common.errors import ProtocolError
from repro.directory_backend.table import HOME_BANK_TABLE
from repro.protocols import PROTOCOLS
from repro.protocols.table import TransitionTable


def _outcome(lookup, *args):
    try:
        return ("rule", lookup(*args))
    except ProtocolError as exc:
        return ("error", str(exc))


def _check_every_cell(table: TransitionTable) -> int:
    vocab = table.vocabulary
    checked = 0
    for state in vocab.states:
        for event in vocab.events:
            for bits in range(2 ** len(vocab.bit_families_for(event))):
                ctx = vocab.context_of_bits(event, bits)
                expected = _outcome(table.lookup, state, event, ctx)
                actual = _outcome(table.lookup_bits, state, event, bits)
                assert actual == expected, (
                    f"{table.name}: {state.value} x {event.value} x bits "
                    f"{bits:#x}: lookup_bits {actual} != lookup {expected}"
                )
                checked += 1
    return checked


@pytest.mark.parametrize("name", sorted(PROTOCOLS))
def test_compiled_matches_interpreter(name):
    checked = _check_every_cell(PROTOCOLS[name].table)
    # 8 states x (6 processor events x 2^2 + 6 snoop events x 2^0 +
    # 7 fill/done events x 2^7) full contexts.
    assert checked == 8 * (6 * 4 + 6 + 7 * 2 ** 7)


def test_directory_rows_match_reference_scan():
    # 4 home states x 5 request classes x 2^3 full contexts.
    assert _check_every_cell(HOME_BANK_TABLE) == 4 * 5 * 8

