"""Label-aware metric registry.

Components publish counters and histograms here; the exporters
and heatmap passes read the registry back out as plain data.  The design
follows the Prometheus data model in miniature: a metric has a name, a
help string, and a fixed tuple of label *names*; every observation
carries one value per label name, and the registry keys the stored
values by the label-value tuple.

Everything a snapshot returns is plain JSON-serializable (and therefore
picklable) data, so registries survive the ``ProcessPoolExecutor`` sweep
path by being reduced to their snapshots in the worker.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Iterable

#: Default histogram bucket upper bounds (cycles); chosen to resolve the
#: bus occupancy and lock hold/wait durations the timing model produces.
DEFAULT_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096)

LabelKey = tuple


class _Child:
    """One label set of a metric, bound by :meth:`_Metric.labels`: the
    label names are checked once, at binding, and the series is created
    by the first update, so binding alone adds nothing to a snapshot."""

    __slots__ = ("_metric", "_key")

    def __init__(self, metric: "_Metric", key: LabelKey) -> None:
        self._metric, self._key = metric, key


class CounterChild(_Child):
    __slots__ = ()

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self._metric.name} cannot decrease")
        values = self._metric.values
        values[self._key] = values.get(self._key, 0) + amount


class HistogramChild(_Child):
    __slots__ = ("_series",)

    def __init__(self, metric: "Histogram", key: LabelKey) -> None:
        super().__init__(metric, key)
        self._series: list | None = None

    def observe(self, value: float) -> None:
        series = self._series
        if series is None:
            series = self._series = self._metric._series_for(self._key)
        series[bisect_left(self._metric.buckets, value)] += 1
        series[-2] += value
        series[-1] += 1

    def unobserve(self, value: float) -> None:
        """Withdraw one earlier :meth:`observe` of ``value`` (a run cut
        short revises a duration it already reported)."""
        series = self._series
        series[bisect_left(self._metric.buckets, value)] -= 1
        series[-2] -= value
        series[-1] -= 1


class _Metric:
    """Shared plumbing: name, help, label keys and child binding (each
    metric class names its ``child`` class)."""

    kind = "abstract"
    __slots__ = ("name", "help", "label_names")

    def __init__(self, name: str, help: str = "",
                 label_names: Iterable[str] = ()) -> None:
        self.name = name
        self.help = help
        self.label_names = tuple(label_names)

    def _key(self, labels: dict) -> LabelKey:
        if sorted(labels) != sorted(self.label_names):
            raise ValueError(f"metric {self.name} takes labels "
                             f"{self.label_names}, got {sorted(labels)}")
        return tuple(labels[n] for n in self.label_names)

    def _labels_of(self, key: LabelKey) -> dict:
        return dict(zip(self.label_names, key))

    def labels(self, **labels: Any) -> _Child:
        """The child bound to one label set, as in the Prometheus
        client; hot call sites bind once and update it directly."""
        return self.child(self, self._key(labels))


class Counter(_Metric):
    """A monotonically increasing value per label set."""

    kind = "counter"
    child = CounterChild
    __slots__ = ("values",)

    def __init__(self, name: str, help: str = "",
                 label_names: Iterable[str] = ()) -> None:
        super().__init__(name, help, label_names)
        self.values: dict[LabelKey, float] = {}

    def inc(self, amount: float = 1, **labels: Any) -> None:
        self.labels(**labels).inc(amount)

    def value(self, **labels: Any) -> float:
        return self.values.get(self._key(labels), 0)

    @property
    def total(self) -> float:
        return sum(self.values.values())

    def snapshot(self) -> dict:
        return {
            "kind": self.kind,
            "help": self.help,
            "label_names": list(self.label_names),
            "values": [
                {"labels": self._labels_of(key), "value": value}
                for key, value in sorted(self.values.items(),
                                         key=lambda kv: repr(kv[0]))
            ],
        }


class Histogram(_Metric):
    """Bucketed distribution per label set: per-bucket (not cumulative)
    counts, plus the sum and count of the observed values."""

    kind = "histogram"
    child = HistogramChild
    __slots__ = ("buckets", "_series")

    def __init__(self, name: str, help: str = "",
                 label_names: Iterable[str] = (),
                 buckets: Iterable[float] = DEFAULT_BUCKETS) -> None:
        super().__init__(name, help, label_names)
        self.buckets = tuple(sorted(buckets))
        if not self.buckets:
            raise ValueError(f"histogram {self.name} needs buckets")
        self._series: dict[LabelKey, list] = {}

    def observe(self, value: float, **labels: Any) -> None:
        self.labels(**labels).observe(value)

    def _series_for(self, key: LabelKey) -> list:
        """``[bucket counts..., +Inf count, sum, count]`` of ``key``."""
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = [0] * (len(self.buckets) + 1) + [0.0, 0]
        return series

    def count(self, **labels: Any) -> int:
        series = self._series.get(self._key(labels))
        return series[-1] if series else 0

    def sum(self, **labels: Any) -> float:
        series = self._series.get(self._key(labels))
        return series[-2] if series else 0.0

    def snapshot(self) -> dict:
        return {
            "kind": self.kind,
            "help": self.help,
            "label_names": list(self.label_names),
            "buckets": list(self.buckets),
            "values": [
                {
                    "labels": self._labels_of(key),
                    "bucket_counts": list(series[:-2]),
                    "sum": series[-2],
                    "count": series[-1],
                }
                for key, series in sorted(self._series.items(),
                                          key=lambda kv: repr(kv[0]))
            ],
        }


def _check_kind(name: str, snapshot: dict, kind: str) -> None:
    if snapshot.get("kind") != kind:
        raise ValueError(f"metric {name}: can only merge {kind} snapshots, "
                         f"got {snapshot.get('kind')!r}")


class MetricRegistry:
    """The collection every component publishes into.

    ``counter``/``histogram`` are get-or-create: asking for an
    existing name returns the existing metric (label names must match),
    so independent components can share a metric safely.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, _Metric] = {}

    def _get_or_create(self, cls, name: str, help: str,
                       label_names: Iterable[str], **kwargs):
        metric = self._metrics.get(name)
        if metric is None:
            metric = self._metrics[name] = cls(name, help, label_names,
                                               **kwargs)
        elif (not isinstance(metric, cls)
              or metric.label_names != tuple(label_names)):
            raise ValueError(f"metric {name} already registered with a "
                             f"different type or label set")
        return metric

    def counter(self, name: str, help: str = "",
                label_names: Iterable[str] = ()) -> Counter:
        return self._get_or_create(Counter, name, help, label_names)

    def histogram(self, name: str, help: str = "",
                  label_names: Iterable[str] = (),
                  buckets: Iterable[float] = DEFAULT_BUCKETS) -> Histogram:
        return self._get_or_create(Histogram, name, help, label_names,
                                   buckets=buckets)

    def get(self, name: str) -> _Metric | None:
        return self._metrics.get(name)

    def merge_counter_snapshot(self, name: str, snapshot: dict,
                               help: str = "") -> Counter:
        """Fold a counter snapshot (from :meth:`Counter.snapshot`) into
        this registry, summing values label-set by label-set.

        This is how per-worker counters cross a process boundary: the
        worker reduces its registry to plain data, and the parent merges
        the snapshots back -- e.g. the sweep executor folding a retried
        point's counters into the sweep-level registry.
        """
        _check_kind(name, snapshot, "counter")
        counter = self.counter(name, help or snapshot.get("help", ""),
                               tuple(snapshot.get("label_names", ())))
        for entry in snapshot.get("values", ()):
            counter.inc(entry["value"], **entry["labels"])
        return counter

    def merge_histogram_snapshot(self, name: str, snapshot: dict,
                                 help: str = "") -> Histogram:
        """Fold a histogram snapshot (from :meth:`Histogram.snapshot`)
        into this registry, summing bucket counts label-set by label-set.

        The counterpart of :meth:`merge_counter_snapshot` for the sweep
        process boundary; bucket boundaries must match any existing
        histogram of the same name.
        """
        _check_kind(name, snapshot, "histogram")
        buckets = tuple(sorted(snapshot.get("buckets", ())))
        histogram = self.histogram(name, help or snapshot.get("help", ""),
                                   tuple(snapshot.get("label_names", ())),
                                   buckets=buckets)
        if histogram.buckets != buckets:
            raise ValueError(
                f"metric {name}: bucket boundaries {buckets} do not match "
                f"existing {histogram.buckets}"
            )
        for entry in snapshot.get("values", ()):
            counts = entry["bucket_counts"]
            if len(counts) != len(histogram.buckets) + 1:
                raise ValueError(
                    f"metric {name}: snapshot has {len(counts)} bucket "
                    f"counts, expected {len(histogram.buckets) + 1}"
                )
            series = histogram._series_for(histogram._key(entry["labels"]))
            for index, count in enumerate(counts):
                series[index] += count
            series[-2] += entry["sum"]
            series[-1] += entry["count"]
        return histogram

    def merge_snapshot(self, snapshot: dict) -> None:
        """Fold a full registry snapshot (from :meth:`snapshot`) into
        this registry.

        Counters and histograms merge additively; any other kind is
        skipped (a point-in-time reading summed across workers would
        fabricate a value no single run ever saw).
        """
        for name, metric in sorted(snapshot.items()):
            kind = metric.get("kind")
            if kind == "counter":
                self.merge_counter_snapshot(name, metric)
            elif kind == "histogram":
                self.merge_histogram_snapshot(name, metric)

    def names(self) -> list[str]:
        return sorted(self._metrics)

    def snapshot(self) -> dict:
        """The whole registry as plain, picklable, JSON-able data."""
        return {name: metric.snapshot()
                for name, metric in sorted(self._metrics.items())}
