#!/usr/bin/env python
"""Regenerate the protocol-port golden fixture.

Runs every protocol across the standard workload registry, stepped and
fast-forward, and records the full ``SimStats.to_json()`` payload of
each run.  The counters in the committed fixture
(``tests/golden/simstats_golden.json``) were first recorded from the
imperative pre-table protocol implementations; a regeneration that only
restamps ``schema_version`` must leave every counter unchanged.
``tests/protocols/test_table_golden.py`` asserts every run reproduces
its payload bit-for-bit, stamp included.

Usage::

    PYTHONPATH=src python scripts/gen_protocol_golden.py [OUT.json]

Only regenerate the fixture for an *intentional* behavioral change --
a diff here is exactly what the golden test exists to catch.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

try:
    from repro import api
except ModuleNotFoundError:  # running from a checkout without install
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from repro import api

from repro.common.errors import ProgramError
from repro.protocols import PROTOCOLS
from repro.sim.engine import Simulator
from repro.workloads.registry import WORKLOADS, build_workload

#: The standard golden matrix: every protocol x every registered
#: workload x stepped and fast-forward execution, at four processors.
PROCESSORS = 4


def build_golden() -> dict:
    cases = {}
    skipped = {}
    for protocol in sorted(PROTOCOLS):
        for workload in sorted(WORKLOADS):
            for fast_forward in (False, True):
                mode = "ff" if fast_forward else "stepped"
                key = f"{protocol}/{workload}/{mode}"
                config = api._build_config(protocol, processors=PROCESSORS)
                programs = build_workload(workload, config)
                try:
                    stats = Simulator(config, programs,
                                      fast_forward=fast_forward).run()
                except ProgramError as exc:
                    # Some pairings are legitimately unsupported (e.g.
                    # classic write-through has no block-write op).
                    skipped[key] = str(exc)
                    continue
                cases[key] = json.loads(stats.to_json())
    return {
        "kind": "simstats-golden",
        "processors": PROCESSORS,
        "cases": cases,
        "skipped": skipped,
    }


def main() -> int:
    out = Path(sys.argv[1]) if len(sys.argv) > 1 else (
        Path(__file__).resolve().parent.parent
        / "tests" / "golden" / "simstats_golden.json"
    )
    golden = build_golden()
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n",
                   encoding="utf-8")
    print(f"{len(golden['cases'])} cases written to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
