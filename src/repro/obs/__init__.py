"""Time-resolved observability: registry, sampler, heatmaps, exporters.

Quickstart::

    from repro import SystemConfig, Simulator
    from repro.obs import Observability, build_heatmap, write_chrome_trace
    from repro.workloads import lock_contention

    config = SystemConfig(num_processors=4, protocol="bitar-despain")
    obs = Observability(interval=100)
    sim = Simulator(config, lock_contention(config), obs=obs)
    sim.run()
    print(build_heatmap(obs).render())
    write_chrome_trace(obs, "trace.json")   # load in ui.perfetto.dev
"""

from repro.common.lazy import lazy_exports

# Each submodule loads on first use of one of its names: an unobserved
# run imports only ``null``.
__all__ = lazy_exports(globals(), {
    "attribution": (
        "BUCKETS",
        "AttributionError",
        "AttributionReport",
        "compare_attributions",
        "compute_attribution",
        "critical_path",
        "render_comparison",
        "render_critical_path",
    ),
    "core": ("DETACHED_OPS", "Observability", "ObsResult"),
    "export": (
        "assert_valid_chrome_trace",
        "chrome_trace",
        "folded_stacks",
        "metrics_json",
        "samples_csv",
        "samples_jsonl",
        "spans_json",
        "validate_chrome_trace",
        "write_chrome_trace",
        "write_samples",
        "write_spans",
    ),
    "null": ("NULL_OBS", "NullObservability"),
    "tracing": ("SPAN_KINDS",),
    "heatmap": ("HEATMAP_METRICS", "Heatmap", "build_heatmap"),
    "registry": ("Counter", "Histogram", "MetricRegistry"),
    "sampler": ("IntervalSampler",),
})
