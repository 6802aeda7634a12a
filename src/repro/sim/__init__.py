"""Simulation kernel: clock, engine, statistics.

Instrumentation lives in :mod:`repro.obs`; a simulator built with
``obs=Observability(...)`` reports through it.
"""

from repro.sim.clock import Clock, StampClock
from repro.sim.stats import ProcessorStats, SimStats

__all__ = [
    "Clock",
    "ProcessorStats",
    "SimStats",
    "StampClock",
]
