"""Steadiness report: run the benchmark repeatedly on one commit.

    python3 perfbench/steadiness.py [--workloads lock16,snoop256]
        [--seeds 0-9] [--seconds N]

Runs ``run.py`` once per workload and seed, one run at a time, and
prints for each workload and end-to-end metric the median, quartiles,
min and max of the runs, and the spread: the distance between the
quartiles as a share of the median, given also as a share of the
metric's bound in ``BENCHMARK.json``.  A benchmark is steady when every
spread stays well inside its bound.

The benchmark divides its times by a fixed pure-Python host-speed probe
taken beside them.  For diagnosis, the report also prints the spread of
the raw median run time and of the probe itself; when both are much
wider than that of ``run_s``, the host drifted during the runs.  Exits
1 if any run fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Bound on one run, well above the benchmark's own 180-second limit.
RUN_TIMEOUT_S = 600


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else float("nan")


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(seed) for seed in text.split(",")]


def run_once(workload: str, seed: int, seconds: int) -> dict:
    """One benchmark run; returns its result line plus ``detail``."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{done.returncode}: {done.stderr.strip()}")
    result = json.loads(lines[-1])
    result["detail"] = json.loads(lines[-2])["detail"]
    return result


def report(workload: str, results: list[dict], bounds: dict) -> list[str]:
    rows = []
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        unit = results[0]["metrics"][name]["unit"]
        q1, median, q3 = statistics.quantiles(values, n=4)
        share = spread(values)
        of_bound = f"{share / bounds[name]:6.2f}"
        rows.append(f"{workload:18} {name:32} {median:12.6g} {q1:12.6g} "
                    f"{q3:12.6g} {min(values):12.6g} {max(values):12.6g} "
                    f"{share:7.4f} {of_bound}  {unit}")
    for label, key in (("raw run time", "run_s"),
                       ("host probe", "host_probe_s")):
        values = [statistics.median(r["detail"][key]) for r in results]
        rows.append(f"{workload:18} {label:32} "
                    f"{statistics.median(values):12.6g} spread "
                    f"{spread(values):.4f} (diagnosis, not gated)")
    return rows


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print(f"{'workload':18} {'metric':32} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'min':>12} {'max':>12} {'spread':>7} "
          f"{'/bound':>6}  unit")
    for workload in args.workloads.split(","):
        results = []
        for seed in parse_seeds(args.seeds):
            try:
                results.append(run_once(workload, seed, args.seconds))
            except (RuntimeError, subprocess.TimeoutExpired) as exc:
                print(f"FAILED: {exc}", file=sys.stderr)
                return 1
        if len(results) < 2:
            print("need at least two seeds for quartiles", file=sys.stderr)
            return 2
        for row in report(workload, results, bounds):
            print(row, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
