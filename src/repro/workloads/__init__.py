"""Workload generators: one per scenario the paper motivates.

Naming: this module exports importable *underscore* names
(``scale_probe``); the CLI-facing registry keys the same workloads
under *hyphenated* names (``scale-probe``).
:func:`repro.workloads.registry.canonical_workload_name` accepts either
spelling, and ``tests/workloads/test_registry_matrix.py`` asserts the
two namespaces stay reconciled.
"""

from repro.common.lazy import lazy_exports

# A generator's module loads on first use, so a run imports only the
# generator it builds.
__all__ = lazy_exports(globals(), {
    "base": ("Atom", "Layout", "layout_for"),
    "lock_contention": ("lock_contention", "uncontended_locks"),
    "multiprogramming": ("multiprogram", "multiprogrammed_contention"),
    "process_switch": ("process_switch",),
    "producer_consumer": ("producer_consumer",),
    "prolog": ("prolog_and_parallel",),
    "request_queue": ("request_queue",),
    "sharing": ("interleaved_sharing", "migration", "scale_probe"),
    "sleep_wait": ("sleep_wait",),
    "synthetic": ("SmithParameters", "smith_stream"),
    "trace": ("dump_trace", "load_trace"),
})
