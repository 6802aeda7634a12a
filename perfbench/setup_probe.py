"""Child process of the ``setup_s`` measurement.

Builds one workload's simulator in a fresh interpreter, ready to run,
then prints the system-wide monotonic clock.  The parent subtracts the
clock it read just before starting this process, so the figure covers
interpreter start, imports, program generation, fabric, caches and
protocol tables.

Usage: python3 perfbench/setup_probe.py <workload> <seed>
"""

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import harness  # noqa: E402

harness.setup(harness.WORKLOADS[sys.argv[1]], int(sys.argv[2]))
print(time.monotonic())
