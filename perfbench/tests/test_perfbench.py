"""Tests for the benchmark harness and its per-layer tracer.

Run from the repository root:  python3 -m pytest perfbench/tests
"""

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import harness
import layers
import run
from repro.protocols import get_protocol
from repro.sim import engine

BENCH = Path(__file__).resolve().parent.parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def small(name: str, **params) -> harness.Workload:
    """A named workload on its own machine with a shorter program."""
    workload = harness.WORKLOADS[name]
    return dataclasses.replace(workload,
                               params={**workload.params, **params})


SMALL = {
    "lock16": small("lock16", rounds=4),
    "lock16-attributed": small("lock16-attributed", rounds=4),
    "snoop256": small("snoop256", total_references=512),
    "dir256-write": small("dir256-write", total_references=512),
}


def traced_metrics(workload, seed=0):
    tracer, sim, stats, payload = layers.traced_run(harness, workload, seed)
    return tracer, layers.layer_metrics(tracer, sim, stats), payload


def owners():
    protocol = get_protocol(harness.PROTOCOL, harness.DISPATCH)
    return ([owner for _, owner, _ in layers._class_targets()]
            + [engine, protocol])


def test_traced_run_restores_every_wrapped_attribute():
    before = {id(owner): dict(vars(owner)) for owner in owners()}
    for workload in SMALL.values():
        traced_metrics(workload)
    with pytest.raises(RuntimeError):
        with layers.LayerTracer():
            raise RuntimeError("mid-trace")
    for owner in owners():
        after = vars(owner)
        saved = before[id(owner)]
        assert after.keys() == saved.keys(), owner
        changed = [k for k in saved if after[k] is not saved[k]]
        assert not changed, (owner, changed)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_output_equals_untraced(name):
    _, payload = harness.timed_run(SMALL[name], 0)
    _, _, traced = traced_metrics(SMALL[name])
    assert traced == payload


@pytest.mark.parametrize("name", sorted(SMALL))
def test_layer_self_times_add_up_to_traced_total(name):
    tracer, metrics, _ = traced_metrics(SMALL[name])
    layer_sum = sum(metrics[f"{layer}.self_s"][0] for layer in layers.LAYERS)
    assert layer_sum == pytest.approx(tracer.outer_s, rel=1e-9)
    total = metrics["trace.total_s"][0]
    assert layer_sum + metrics["trace.unwrapped_s"][0] == pytest.approx(
        total, rel=1e-9)
    assert 0 <= metrics["trace.unwrapped_s"][0] < total


def test_metric_names_match_the_pattern_and_the_spec():
    names = [m["name"] for key in ("end_to_end", "per_layer")
             for m in SPEC[key]]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))
    _, metrics, _ = traced_metrics(SMALL["dir256-write"])
    emitted = set(metrics) | {"trace.overhead"}
    assert emitted == {m["name"] for m in SPEC["per_layer"]}
    assert {w["name"] for w in SPEC["workloads"]} == set(harness.WORKLOADS)


def test_end_to_end_run_emits_every_spec_metric(capsys):
    code = run.main(["--workload", "lock16", "--seed", "0",
                     "--seconds", "0", "--trace", "0"])
    assert code == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for metric in SPEC["end_to_end"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert result["metrics"][metric["name"]]["value"] > 0


@pytest.mark.parametrize("name", sorted(SMALL))
def test_count_metrics_repeat_exactly(name):
    def counts():
        _, metrics, _ = traced_metrics(SMALL[name], seed=3)
        return {k: v for k, (v, unit) in metrics.items() if unit != "s"}
    assert counts() == counts()


def test_snoop256_broadcasts_to_every_other_cache():
    # Fan-out depends on the machine, not the program length.
    _, metrics, _ = traced_metrics(SMALL["snoop256"])
    assert metrics["cache.snoops_per_txn"][0] == 255


@pytest.mark.parametrize("name", sorted(SMALL))
def test_obs_hooks_fire_only_on_the_attributed_workload(name):
    _, metrics, _ = traced_metrics(SMALL[name])
    if harness.WORKLOADS[name].attributed:
        assert metrics["obs.hook_calls"][0] > 0
    else:
        assert metrics["obs.hook_calls"][0] == 0


@pytest.mark.parametrize("name", sorted(harness.WORKLOADS))
@pytest.mark.parametrize("seed", [0, 1])
def test_engine_gate_passes_on_two_seeds(name, seed):
    harness.engine_gate(harness.WORKLOADS[name], seed)


def test_seed_drives_only_the_scale_probe_streams():
    def ops(name, seed):
        workload = SMALL[name]
        config = harness.config_for(workload)
        return [[(op.kind, op.addr) for op in p.ops]
                for p in harness.build_programs(workload, config, seed)]
    assert ops("snoop256", 0) != ops("snoop256", 1)
    assert ops("snoop256", 1) == ops("snoop256", 1)
    assert ops("lock16", 0) == ops("lock16", 1)


class StubHarness:
    PROBE_REFERENCE_S = 0.01
    host_probe = staticmethod(lambda: 0.02)
    stream_seeds = staticmethod(lambda workload, seed: [seed])


def test_differing_repetition_counts_as_failure():
    outputs = iter([{"cycles": 1}] * (run.MIN_REPS - 1) + [{"cycles": 2}])

    class Stub(StubHarness):
        @staticmethod
        def timed_run(workload, seed):
            return 0.1, next(outputs)

    tally = run.Tally()
    probed = run.Probed(Stub)
    assert run.timed_reps(Stub, None, 0, 0.0, tally, probed) == {
        0: {"cycles": 1}}
    assert probed.count("run_s") == run.MIN_REPS
    assert tally.attempted == run.MIN_REPS and len(tally.failures) == 1


def test_repetitions_take_every_stream_and_check_each_one():
    seen = []

    class Stub(StubHarness):
        stream_seeds = staticmethod(harness.stream_seeds)

        @staticmethod
        def timed_run(workload, seed):
            seen.append(seed)
            return 0.1, {"seed": seed}

    workload = harness.WORKLOADS["dir256-write"]
    tally = run.Tally()
    outputs = run.timed_reps(Stub, workload, 2, 0.0, tally, run.Probed(Stub))
    streams = harness.stream_seeds(workload, 2)
    assert seen == streams
    assert outputs == {stream: {"seed": stream} for stream in streams}
    assert not tally.failures
    assert not set(streams) & set(harness.stream_seeds(workload, 3))


def test_times_are_normalised_by_the_probes_beside_them():
    # A host twice as slow as the reference halves every sample.
    probed = run.Probed(StubHarness)
    probed.add("run_s", 0.5)
    assert probed.median("run_s") == pytest.approx(0.25)
    assert probed.raw == {"run_s": [0.5]} and len(probed.probes) == 2


def test_raising_simulation_counts_as_failure():
    def boom(workload, seed):
        raise harness.CheckFailed("wrong output")

    class Stub(StubHarness):
        timed_run = staticmethod(boom)

    tally = run.Tally()
    probed = run.Probed(Stub)
    assert run.timed_reps(Stub, None, 0, 0.0, tally, probed) == {}
    assert probed.count("run_s") == 0
    assert tally.attempted == 1 and "wrong output" in tally.failures[0]


def test_broadcast_messages_are_counted_deliveries():
    _, simulated = harness.counted_run(SMALL["snoop256"], 0)
    assert simulated["messages"] == 255 * simulated["transactions"]


def test_exits_nonzero_without_the_simulator_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lock16",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
