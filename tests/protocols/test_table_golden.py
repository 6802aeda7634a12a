"""Golden regression for the table-driven protocol port.

``tests/golden/simstats_golden.json`` records the full
``SimStats.to_json()`` payload of every protocol x standard workload x
(stepped, fast-forward) run (``scripts/gen_protocol_golden.py``).  The
counters were first recorded from the imperative pre-table
implementations and have not changed since; the payloads carry the
current ``schema_version`` stamp.  Every run must reproduce its payload
bit-for-bit, stamp included: any diff is a behavioral change, not a
refactor.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro import api
from repro.common.errors import ProgramError
from repro.protocols import PROTOCOLS
from repro.sim.engine import Simulator
from repro.workloads.registry import WORKLOADS, build_workload

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
    # Built exactly as ``api.simulate`` builds them; run on the named engine.
    config = api._build_config(protocol, processors=GOLDEN["processors"])
    sim = Simulator(config, build_workload(workload, config),
                    fast_forward=fast_forward)
    if key in GOLDEN["skipped"]:
        with pytest.raises(ProgramError):
            sim.run()
        return
    got = json.loads(sim.run().to_json())
    assert got == GOLDEN["cases"][key], f"{key}: stats diverge from the golden"
