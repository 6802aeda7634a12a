"""Heatmap tour: attach the observability layer to a contended-lock run,
rank the hot blocks, and export a Perfetto-loadable timeline.

Two protocols face the same workload: a TTAS spin on Illinois (every
retry invalidates the lock block across the machine) and the paper's
cache-lock proposal (waiting is silent).  The per-block heatmap makes
the difference visible -- and names the contended block.

Run:  python examples/heatmap_tour.py
"""

import json
import tempfile
from pathlib import Path

from repro import CacheConfig, SystemConfig
from repro.obs import (
    Observability,
    build_heatmap,
    chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.processor.program import LockStyle
from repro.sim.engine import Simulator
from repro.workloads import lock_contention


def observe(protocol: str, style: LockStyle) -> Observability:
    config = SystemConfig(
        num_processors=8,
        protocol=protocol,
        cache=CacheConfig(words_per_block=4, num_blocks=128),
    )
    programs = lock_contention(config, rounds=6, think_cycles=20,
                               lock_style=style)
    obs = Observability(interval=100)
    Simulator(config, programs, obs=obs).run()
    return obs


def main() -> None:
    runs = [
        ("illinois (TTAS spin)", observe("illinois", LockStyle.TTAS)),
        ("bitar-despain (cache lock)",
         observe("bitar-despain", LockStyle.CACHE_LOCK)),
    ]

    for name, obs in runs:
        heat = build_heatmap(obs)
        print(f"\n{name}")
        print(heat.render(n=5))
        hot = heat.hottest_block("invalidations_total")
        if hot is not None:
            count = heat.per_metric["invalidations_total"][hot]
            print(f"  top invalidation source: block {hot} "
                  f"({int(count)} invalidations) -- the contended lock")
        else:
            print("  no invalidations at all: waiters stayed silent")

    # Time-resolved view: peak lock-queue depth from the sample series.
    _, proposal = runs[1]
    depth = max(s["lock_waiters"] for s in proposal.sampler.samples)
    print(f"\npeak waiters on the proposal run: {depth}")

    # Export the proposal run's timeline for ui.perfetto.dev.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "lock_contention.trace.json"
        write_chrome_trace(proposal, str(path))
        payload = json.loads(path.read_text())
        assert validate_chrome_trace(payload) == []
        slices = sum(1 for e in payload["traceEvents"] if e["ph"] == "X")
        print(f"Chrome trace: {slices} slices across "
              f"{len(chrome_trace(proposal)['traceEvents']) - slices} "
              f"metadata records (load the JSON in ui.perfetto.dev)")


if __name__ == "__main__":
    main()
