"""Golden regression for the table-driven protocol port.

``tests/golden/simstats_golden.json`` records the full
``SimStats.to_json()`` payload of every protocol x standard workload x
(stepped, fast-forward) run, generated from the imperative pre-table
implementations (``scripts/gen_protocol_golden.py``).  The table port
must reproduce every payload bit-for-bit: any diff is a behavioral
change, not a refactor.  The one exception is each payload's
``schema_version`` stamp, which records the version the golden was
written at: it must be one this library still reads.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro import api
from repro.common.errors import ProgramError
from repro.common.schema import SCHEMA_KEY, check
from repro.protocols import PROTOCOLS
from repro.workloads.registry import WORKLOADS

GOLDEN_PATH = (Path(__file__).resolve().parent.parent
               / "golden" / "simstats_golden.json")
GOLDEN = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))

CASES = [
    (protocol, workload, fast_forward)
    for protocol in sorted(PROTOCOLS)
    for workload in sorted(WORKLOADS)
    for fast_forward in (False, True)
]


def _key(protocol: str, workload: str, fast_forward: bool) -> str:
    return f"{protocol}/{workload}/{'ff' if fast_forward else 'stepped'}"


def test_golden_covers_current_matrix():
    recorded = set(GOLDEN["cases"]) | set(GOLDEN["skipped"])
    assert {_key(*case) for case in CASES} == recorded


@pytest.mark.parametrize(
    "protocol,workload,fast_forward",
    CASES,
    ids=[_key(*case) for case in CASES],
)
def test_stats_bit_identical(protocol, workload, fast_forward):
    key = _key(protocol, workload, fast_forward)
    if key in GOLDEN["skipped"]:
        with pytest.raises(ProgramError):
            api.simulate(protocol, workload,
                         processors=GOLDEN["processors"],
                         fast_forward=fast_forward)
        return
    result = api.simulate(protocol, workload,
                          processors=GOLDEN["processors"],
                          fast_forward=fast_forward)
    want = dict(GOLDEN["cases"][key])
    check(want, where=key)
    del want[SCHEMA_KEY]
    got = json.loads(result.stats.to_json())
    del got[SCHEMA_KEY]
    assert got == want, (
        f"{key}: table-driven stats diverge from the imperative golden"
    )
