"""The repository benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload snoop256 --seed 0 --seconds 26 --trace 0

Run from the root of a checkout.  With ``--trace 0`` it prints the
end-to-end metrics named in ``BENCHMARK.json``; with ``--trace 1`` the
per-layer metrics of one traced run (see ``layers.py``).  The last line
of standard output is one JSON object::

    {"correct": true, "attempted": 7, "failed": 0, "metrics": {...}}

and the line before it a ``{"detail": ...}`` object with the seed, every
raw sample and every host-speed probe.  Times are normalised by the
probes taken beside them (see ``Probed``).  A wrong output or a raise counts
as a failed simulation and makes the exit code 1.  Without the
simulator's source beside it the benchmark prints no result and exits
with code 2.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Fresh interpreters timed per run for ``setup_s``, after one that
#: compiles the bytecode and is not counted.
SETUP_SAMPLES = 11
#: Timed repetitions per run, however long each takes: enough for every
#: stream of a scale-probe seed to run once.
MIN_REPS = 4
#: A setup child that takes this long has hung.
CHILD_TIMEOUT_S = 60


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


class Tally:
    """Simulations attempted and failed in one run, with the causes."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def attempt(self, fn, *args):
        """Call ``fn``; on any raise record the failure and return
        ``None``.  The boundary catches everything because a raise in
        the simulator is a measured outcome, not a crash."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception:
            self.failures.append(traceback.format_exc(limit=-3))
            return None

    def fail(self, reason: str) -> None:
        self.failures.append(reason)

    @property
    def ok_share(self) -> float:
        return 1.0 - len(self.failures) / self.attempted


def setup_sample(workload: str, seed: int) -> float:
    """One raw ``setup_s`` sample: a fresh interpreter builds the
    simulator."""
    start = time.monotonic()
    done = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"set-up child exited {done.returncode}: "
                           f"{done.stderr.strip()}")
    return float(done.stdout.split()[-1]) - start


class Probed:
    """Timed samples by kind, each normalised by the host probes on
    either side of it.

    Probes and samples alternate: every sample sits between the probe
    taken before it and the one :meth:`add` takes after it.  A sample is
    divided by the mean of the two and quoted at
    :data:`harness.PROBE_REFERENCE_S`, so a host slowdown that stretches
    sample and probes alike cancels."""

    def __init__(self, harness) -> None:
        self._probe = harness.host_probe
        self._reference = harness.PROBE_REFERENCE_S
        self.probes = [self._probe()]
        self.raw: dict[str, list[float]] = {}
        self.normalised: dict[str, list[float]] = {}

    def add(self, kind: str, seconds: float) -> None:
        self.probes.append(self._probe())
        host = (self.probes[-2] + self.probes[-1]) / 2
        self.raw.setdefault(kind, []).append(seconds)
        self.normalised.setdefault(kind, []).append(
            seconds * self._reference / host)

    def count(self, kind: str) -> int:
        return len(self.raw.get(kind, ()))

    def median(self, kind: str) -> float:
        return statistics.median(self.normalised[kind])


def timed_reps(harness, workload, seed: int, seconds: float, tally: Tally,
               probed: Probed, *, setups: bool = False):
    """Repeat the untimed setup and timed run for ``seconds``, at least
    :data:`MIN_REPS` times, adding each run time to ``probed`` as
    ``run_s``.  The repetitions take the seed's streams in turn; each
    must produce the output its stream first produced.  Returns those
    outputs by stream seed.

    With ``setups``, also add :data:`SETUP_SAMPLES` ``setup_s`` samples
    spread evenly over the window, so that a burst of host load cannot
    fall on all of them at once."""
    streams = harness.stream_seeds(workload, seed)
    outputs: dict[int, dict] = {}
    start = time.perf_counter()
    deadline = start + seconds
    last = 0.0
    # Start another repetition only if one as long as the last fits.
    while (probed.count("run_s") < MIN_REPS
           or time.perf_counter() + last <= deadline):
        if setups:
            done = (time.perf_counter() - start) / seconds if seconds else 1
            _take_setups(workload, streams[0], tally, probed,
                         SETUP_SAMPLES * min(1.0, done))
        started = time.perf_counter()
        stream = streams[probed.count("run_s") % len(streams)]
        rep = tally.attempt(harness.timed_run, workload, stream)
        if rep is None:
            break
        run_s, payload = rep
        if outputs.setdefault(stream, payload) != payload:
            tally.fail(f"repetition {probed.count('run_s')} output differs "
                       f"from stream {stream}'s first")
        probed.add("run_s", run_s)
        last = time.perf_counter() - started
    if setups:
        _take_setups(workload, streams[0], tally, probed, SETUP_SAMPLES)
    return outputs


def _take_setups(workload, seed: int, tally: Tally, probed: Probed,
                 due: float) -> None:
    while probed.count("setup_s") < due:
        sample = tally.attempt(setup_sample, workload.name, seed)
        if sample is None:
            return
        probed.add("setup_s", sample)


def end_to_end(harness, workload, seed: int, seconds: float) -> tuple:
    tally = Tally()
    streams = harness.stream_seeds(workload, seed)
    # Compiles the bytecode, as a user's first run does; not counted.
    tally.attempt(setup_sample, workload.name, streams[0])
    tally.attempt(harness.engine_gate, workload, streams[0])
    counted = {stream: tally.attempt(harness.counted_run, workload, stream)
               for stream in streams}
    probed = Probed(harness)
    outputs = timed_reps(harness, workload, seed, seconds, tally, probed,
                         setups=True)
    detail = {**probed.raw, "host_probe_s": probed.probes}
    if (probed.count("setup_s") < SETUP_SAMPLES
            or outputs.keys() != counted.keys()
            or None in counted.values()):
        return tally, {}, detail
    for stream, (payload, _) in counted.items():
        if payload != outputs[stream]:
            tally.fail(f"stream {stream}: counted run output differs from "
                       f"the timed runs")
    simulated = [figures for _, figures in counted.values()]
    transactions = sum(f["transactions"] for f in simulated)
    metrics = {
        "setup_s": _metric(probed.median("setup_s"), "s"),
        "run_s": _metric(probed.median("run_s"), "s"),
        "peak_rss_mb": _metric(harness.peak_rss_mb(), "MB"),
        "sim_cycles": _metric(
            statistics.mean(f["sim_cycles"] for f in simulated), "cycles"),
        "msgs_per_txn": _metric(
            sum(f["messages"] for f in simulated) / transactions,
            "msgs/txn"),
        "ok_share": _metric(tally.ok_share, "fraction"),
    }
    detail["transactions"] = transactions
    return tally, metrics, detail


def per_layer(harness, workload, seed: int, seconds: float) -> tuple:
    """One traced run, then untraced repetitions of the same inputs."""
    import layers

    tally = Tally()
    stream = harness.stream_seeds(workload, seed)[0]
    probed = Probed(harness)
    traced = tally.attempt(layers.traced_run, harness, workload, stream)
    if traced is not None:
        probed.add("traced_run_s", traced[0].span_s("run"))
    outputs = timed_reps(harness, workload, seed, seconds, tally, probed)
    detail = {**probed.raw, "host_probe_s": probed.probes}
    if traced is None or stream not in outputs:
        return tally, {}, detail
    tracer, sim, stats, payload = traced
    if payload != outputs[stream]:
        tally.fail("traced output differs from the untraced output")
    computed = tally.attempt(layers.layer_metrics, tracer, sim, stats)
    if computed is None:
        return tally, {}, detail
    metrics = {name: _metric(value, unit)
               for name, (value, unit) in computed.items()}
    # Both sides normalised, the untraced one the median as in ``run_s``.
    metrics["trace.overhead"] = _metric(
        probed.median("traced_run_s") / probed.median("run_s"), "ratio")
    detail.update(spans=tracer.spans,
                  calls=dict(sorted(tracer.calls.items())))
    return tally, metrics, detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no simulator source at {SRC}; run from the root "
              f"of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness

    workload = harness.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r} (known: "
              f"{', '.join(harness.WORKLOADS)})", file=sys.stderr)
        return 2
    measure = per_layer if args.trace else end_to_end
    tally, metrics, detail = measure(harness, workload, args.seed,
                                     args.seconds)
    for failure in tally.failures:
        print(failure, file=sys.stderr)
    correct = not tally.failures
    print(json.dumps({"detail": {"workload": workload.name,
                                 "seed": args.seed, "trace": args.trace,
                                 "streams": harness.stream_seeds(
                                     workload, args.seed),
                                 "failures": tally.failures, **detail}}))
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": len(tally.failures), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
