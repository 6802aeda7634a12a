"""Metric registry: counters, histograms, and label discipline."""

from __future__ import annotations

import json
import pickle

import pytest

from repro.obs.registry import (
    DEFAULT_BUCKETS,
    Counter,
    Histogram,
    MetricRegistry,
)


class TestCounter:
    def test_inc_and_value_per_label_set(self):
        c = Counter("txns", label_names=("op",))
        c.inc(op="READ")
        c.inc(3, op="READ")
        c.inc(op="WRITE")
        assert c.value(op="READ") == 4
        assert c.value(op="WRITE") == 1
        assert c.value(op="FLUSH") == 0
        assert c.total == 5

    def test_counter_rejects_decrease(self):
        c = Counter("n")
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_wrong_label_names_rejected(self):
        c = Counter("txns", label_names=("op",))
        with pytest.raises(ValueError):
            c.inc(bus=0)
        with pytest.raises(ValueError):
            c.inc(op="READ", bus=0)
        with pytest.raises(ValueError):
            c.inc()

    def test_snapshot_is_plain_sorted_data(self):
        c = Counter("txns", help="transactions", label_names=("op",))
        c.inc(op="WRITE")
        c.inc(2, op="READ")
        snap = c.snapshot()
        assert snap["kind"] == "counter"
        assert snap["help"] == "transactions"
        assert snap["label_names"] == ["op"]
        assert snap["values"] == [
            {"labels": {"op": "READ"}, "value": 2},
            {"labels": {"op": "WRITE"}, "value": 1},
        ]
        json.dumps(snap)  # JSON-able throughout


class TestHistogram:
    def test_bucketing_sum_count(self):
        h = Histogram("lat", buckets=(1, 10, 100))
        for value in (0, 1, 5, 10, 99, 1000):
            h.observe(value)
        assert h.count() == 6
        assert h.sum() == 1115.0
        snap = h.snapshot()["values"][0]
        # bucket counts: <=1, <=10, <=100, +Inf
        assert snap["bucket_counts"] == [2, 2, 1, 1]
        assert snap["count"] == 6
        assert snap["sum"] == 1115.0

    def test_labelled_series_independent(self):
        h = Histogram("hold", label_names=("block",))
        h.observe(4, block=0)
        h.observe(8, block=64)
        assert h.count(block=0) == 1
        assert h.count(block=64) == 1
        assert h.count(block=128) == 0
        assert h.sum(block=64) == 8.0

    def test_buckets_sorted_and_required(self):
        h = Histogram("x", buckets=(100, 1, 10))
        assert h.buckets == (1, 10, 100)
        with pytest.raises(ValueError):
            Histogram("y", buckets=())

    def test_default_buckets_ascending(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)


class TestMetricRegistry:
    def test_get_or_create_returns_same_instance(self):
        reg = MetricRegistry()
        a = reg.counter("txns", label_names=("op",))
        b = reg.counter("txns", label_names=("op",))
        assert a is b

    def test_mismatched_reregistration_raises(self):
        reg = MetricRegistry()
        reg.counter("txns", label_names=("op",))
        with pytest.raises(ValueError):
            reg.counter("txns", label_names=("bus",))
        with pytest.raises(ValueError):
            reg.histogram("txns", label_names=("op",))

    def test_names_and_get(self):
        reg = MetricRegistry()
        reg.histogram("b")
        reg.counter("a")
        assert reg.names() == ["a", "b"]
        assert reg.get("a").kind == "counter"
        assert reg.get("missing") is None

    def test_snapshot_round_trips_through_json_and_pickle(self):
        reg = MetricRegistry()
        reg.counter("txns", label_names=("op",)).inc(op="READ")
        reg.histogram("lat").observe(17)
        snap = reg.snapshot()
        assert json.loads(json.dumps(snap)) == snap
        assert pickle.loads(pickle.dumps(snap)) == snap
        assert set(snap) == {"txns", "lat"}


class TestHistogramMerging:
    def test_merge_sums_bucket_counts_sum_and_count(self):
        a, b = MetricRegistry(), MetricRegistry()
        a.histogram("lat", buckets=(1, 10)).observe(5)
        b.histogram("lat", buckets=(1, 10)).observe(0.5)
        b.histogram("lat", buckets=(1, 10)).observe(50)
        a.merge_histogram_snapshot("lat", b.snapshot()["lat"])
        merged = a.snapshot()["lat"]["values"][0]
        assert merged["bucket_counts"] == [1, 1, 1]
        assert merged["count"] == 3
        assert merged["sum"] == pytest.approx(55.5)

    def test_merge_preserves_label_sets(self):
        a, b = MetricRegistry(), MetricRegistry()
        a.histogram("lat", label_names=("op",)).observe(3, op="READ")
        b.histogram("lat", label_names=("op",)).observe(7, op="WRITE")
        a.merge_histogram_snapshot("lat", b.snapshot()["lat"])
        values = {tuple(sorted(v["labels"].items())): v["count"]
                  for v in a.snapshot()["lat"]["values"]}
        assert values == {(("op", "READ"),): 1, (("op", "WRITE"),): 1}

    def test_merge_into_empty_registry_creates_the_histogram(self):
        src, dst = MetricRegistry(), MetricRegistry()
        src.histogram("lat", buckets=(2, 4)).observe(3)
        dst.merge_histogram_snapshot("lat", src.snapshot()["lat"])
        assert dst.snapshot()["lat"] == src.snapshot()["lat"]

    def test_mismatched_bucket_boundaries_raise(self):
        a, b = MetricRegistry(), MetricRegistry()
        a.histogram("lat", buckets=(1, 10)).observe(5)
        b.histogram("lat", buckets=(1, 100)).observe(5)
        with pytest.raises(ValueError):
            a.merge_histogram_snapshot("lat", b.snapshot()["lat"])

    def test_non_histogram_snapshot_rejected(self):
        reg = MetricRegistry()
        src = MetricRegistry()
        src.counter("txns").inc()
        with pytest.raises(ValueError):
            reg.merge_histogram_snapshot("txns", src.snapshot()["txns"])


class TestRegistrySnapshotMerging:
    def test_merge_snapshot_folds_counters_and_histograms(self):
        a, b = MetricRegistry(), MetricRegistry()
        a.counter("txns").inc(2)
        a.histogram("lat", buckets=(1,)).observe(0.5)
        b.counter("txns").inc(3)
        b.histogram("lat", buckets=(1,)).observe(2)
        a.merge_snapshot(b.snapshot())
        snap = a.snapshot()
        assert snap["txns"]["values"][0]["value"] == 5
        assert snap["lat"]["values"][0]["bucket_counts"] == [1, 1]

    def test_merge_snapshot_skips_gauges(self):
        # Only counters and histograms merge; a point-in-time reading
        # (a gauge from another exporter, say) is not summed.
        a = MetricRegistry()
        a.merge_snapshot({"depth": {"kind": "gauge", "help": "",
                                    "label_names": [],
                                    "values": [{"labels": {}, "value": 7}]}})
        assert a.get("depth") is None


class TestBoundChildren:
    """``labels()`` binds one label set once; the child updates the same
    series the keyword path does."""

    def test_wrong_label_names_raise_at_bind_time(self):
        c = Counter("txns", label_names=("op",))
        h = Histogram("hold", label_names=("block",))
        for bind in (lambda: c.labels(bus=0), lambda: c.labels(),
                     lambda: c.labels(op="READ", bus=0),
                     lambda: h.labels(op="READ"), lambda: h.labels()):
            with pytest.raises(ValueError):
                bind()

    def test_child_and_keywords_update_one_series(self):
        c = Counter("txns", label_names=("op",))
        child = c.labels(op="READ")
        child.inc()
        c.inc(2, op="READ")
        child.inc(3)
        assert c.value(op="READ") == 6
        assert [v["labels"] for v in c.snapshot()["values"]] == [
            {"op": "READ"}]

        h = Histogram("hold", label_names=("block",), buckets=(1, 10))
        h.observe(20, block=0)          # the keyword path creates it
        late = h.labels(block=0)
        late.observe(4)
        h.observe(0, block=0)
        assert h.count(block=0) == 3
        assert h.sum(block=0) == 24.0
        assert h.snapshot()["values"] == [
            {"labels": {"block": 0}, "bucket_counts": [1, 1, 1],
             "sum": 24.0, "count": 3}]

    def test_binding_without_updating_leaves_the_snapshot_unchanged(self):
        reg = MetricRegistry()
        counter = reg.counter("txns", label_names=("op",))
        histogram = reg.histogram("hold", label_names=("block",))
        before = reg.snapshot()
        counter.labels(op="READ")
        histogram.labels(block=64)
        assert reg.snapshot() == before
        assert before["txns"]["values"] == before["hold"]["values"] == []

    def test_counter_child_refuses_a_negative_amount(self):
        c = Counter("n", label_names=("op",))
        child = c.labels(op="READ")
        with pytest.raises(ValueError):
            child.inc(-1)
        assert c.snapshot()["values"] == []

    def test_merge_round_trips_match_the_keyword_path(self):
        def fill(reg, bound):
            c = reg.counter("txns", label_names=("op", "bus"))
            h = reg.histogram("lat", label_names=("op",), buckets=(2, 8))
            for op, bus, value in (("READ", 0, 1), ("WRITE", 1, 9),
                                   ("READ", 0, 3)):
                if bound:
                    c.labels(op=op, bus=bus).inc(value)
                    h.labels(op=op).observe(value)
                else:
                    c.inc(value, op=op, bus=bus)
                    h.observe(value, op=op)

        bound, keywords = MetricRegistry(), MetricRegistry()
        fill(bound, True)
        fill(keywords, False)
        snap = bound.snapshot()
        assert snap == keywords.snapshot()
        merged = MetricRegistry()
        merged.merge_snapshot(snap)
        assert merged.snapshot() == snap
        merged.merge_snapshot(snap)
        assert merged.snapshot()["txns"]["values"] == [
            {"labels": {"op": "READ", "bus": 0}, "value": 8},
            {"labels": {"op": "WRITE", "bus": 1}, "value": 18}]
        assert merged.snapshot()["lat"]["values"][0]["count"] == 4
