"""Exporter byte-identity: every serialized observability artifact --
metrics JSONL/CSV, the Perfetto trace, the span trace, and the folded
flamegraph stacks -- must be byte-for-byte identical across the
stepped/fast-forward engines on a fixed scenario."""

from __future__ import annotations

import json

import pytest

from repro import CacheConfig, SystemConfig
from repro.obs import (
    Observability,
    chrome_trace,
    compute_attribution,
    folded_stacks,
    samples_csv,
    samples_jsonl,
    spans_json,
)
from repro.obs.export import assert_valid_chrome_trace
from repro.processor.program import LockStyle
from repro.sim.engine import Simulator
from repro.workloads import lock_contention

#: The engines: stepped, then fast-forward.
COMBOS = [False, True]


def _artifacts(fast_forward: bool) -> dict[str, str]:
    config = SystemConfig(
        num_processors=4,
        protocol="bitar-despain",
        strict_verify=True,
        cache=CacheConfig(words_per_block=4, num_blocks=64),
    )
    programs = lock_contention(config, lock_style=LockStyle.CACHE_LOCK,
                               rounds=5, think_cycles=9)
    obs = Observability(interval=50, tracing=True)
    sim = Simulator(config, programs, obs=obs, fast_forward=fast_forward)
    stats = sim.run()
    result = obs.result()
    report = compute_attribution(obs, stats)
    trace = chrome_trace(result)
    assert_valid_chrome_trace(trace)
    return {
        "jsonl": samples_jsonl(result),
        "csv": samples_csv(result),
        "perfetto": json.dumps(trace, sort_keys=True),
        "spans": spans_json(result),
        "folded": folded_stacks(report),
    }


@pytest.fixture(scope="module")
def matrix():
    return {combo: _artifacts(combo) for combo in COMBOS}


@pytest.mark.parametrize("artifact",
                         ["jsonl", "csv", "perfetto", "spans", "folded"])
def test_artifact_byte_identical_across_all_combos(matrix, artifact):
    reference = matrix[COMBOS[0]][artifact]
    assert reference, f"{artifact} export is empty"
    for combo in COMBOS[1:]:
        assert matrix[combo][artifact] == reference, (
            f"{artifact} diverges for fast_forward={combo}")


def test_perfetto_carries_span_slices_and_flow_events(matrix):
    trace = json.loads(matrix[COMBOS[0]]["perfetto"])
    events = trace["traceEvents"]
    span_slices = [e for e in events
                   if e.get("cat", "").startswith("span.")]
    assert span_slices, "no span slices in the Perfetto export"
    phases = {e["ph"] for e in events}
    assert {"s", "f"} <= phases, "no flow events linking the span DAG"


def test_folded_stacks_cover_every_bucket_per_cpu(matrix):
    from repro.obs import BUCKETS

    lines = matrix[COMBOS[0]]["folded"].splitlines()
    seen = {tuple(line.split(" ")[0].split(";")) for line in lines}
    for pid in range(4):
        for bucket in BUCKETS:
            assert (f"cpu{pid}", bucket) in seen
