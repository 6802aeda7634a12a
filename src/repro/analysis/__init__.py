"""Analysis layer: table builders, Figure-10 enumeration, formulas."""

from repro.common.lazy import lazy_exports

# Submodules load on first use: numpy (``sweeps``) and the process pool
# (``resilient``) only when a sweep runs.
__all__ = lazy_exports(globals(), {
    "formulas": (
        "TrafficIncrease",
        "fetch_for_write_saving",
        "fragmentation_transfer_cost",
        "invalidation_signal_saving",
        "smith_frequency_range",
        "write_hit_to_clean_frequency",
    ),
    "metrics": (
        "LockMetrics",
        "TrafficMetrics",
        "lock_metrics",
        "processor_utilization",
        "speedup",
        "traffic_metrics",
    ),
    "diagram": ("render_diagram", "to_dot", "to_mermaid"),
    "encoding": ("state_bits", "transfer_unit_encoding"),
    "queueing": ("BusQueueingPoint", "bus_queueing_point", "md1_mean_wait"),
    "report": ("format_ratio", "render_series", "render_table"),
    "resilient": ("POINT_STATUSES", "ExecutionPolicy", "PointOutcome"),
    "sweeps": (
        "SeedStatistics",
        "Sweep",
        "SweepSeries",
        "over_seeds",
        "run_sweep_parallel",
    ),
    "table1": ("Table1", "build_table1"),
    "table2": ("TABLE2", "derived_innovations", "render_table2"),
    "transitions": (
        "enumerate_bus_arcs",
        "enumerate_processor_arcs",
        "render_figure10",
        "verify_figure10",
    ),
})
