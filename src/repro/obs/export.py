"""Exporters: JSON-lines, CSV, and Chrome trace-event format.

The sample series and metric snapshots leave the process as JSON-lines
(one sample per line) or CSV; the timeline slices leave as Chrome
trace-event JSON loadable in Perfetto (``ui.perfetto.dev``) or
``chrome://tracing`` -- one track per processor, one per bus, with lock
hold/wait slices on the processor tracks and bus occupancy slices on the
bus tracks.

:func:`validate_chrome_trace` checks an exported payload against the
subset of the trace-event schema this module emits (and Perfetto
requires); the CI smoke job runs it over the artifacts it uploads.
"""

from __future__ import annotations

import csv
import io
import json
from typing import TYPE_CHECKING, Any

from repro.common.schema import stamp

if TYPE_CHECKING:
    from repro.obs.core import Observability, ObsResult

#: Sample fields whose values are nested mappings; CSV encodes them as
#: JSON cells, JSONL keeps them structured.
_NESTED_SAMPLE_FIELDS = ("txn_mix", "lock_queue_depth")


def _result(obs: "Observability | ObsResult") -> "ObsResult":
    from repro.obs.core import _as_result

    return _as_result(obs)


# -- JSON lines / CSV -------------------------------------------------------


def samples_jsonl(obs: "Observability | ObsResult") -> str:
    """One sample per line; a leading header line carries run metadata."""
    result = _result(obs)
    lines = [json.dumps(stamp({"kind": "header", "interval": result.interval,
                               "cycles": result.cycles}))]
    lines.extend(
        json.dumps({"kind": "sample", **sample}) for sample in result.samples
    )
    return "\n".join(lines) + "\n"


def samples_csv(obs: "Observability | ObsResult") -> str:
    """The sample series as CSV; nested mappings become JSON cells."""
    result = _result(obs)
    buffer = io.StringIO()
    if not result.samples:
        return ""
    fields = list(result.samples[0])
    writer = csv.DictWriter(buffer, fieldnames=fields, lineterminator="\n")
    writer.writeheader()
    for sample in result.samples:
        row = dict(sample)
        for key in _NESTED_SAMPLE_FIELDS:
            if key in row:
                row[key] = json.dumps(row[key], sort_keys=True)
        writer.writerow(row)
    return buffer.getvalue()


def metrics_json(obs: "Observability | ObsResult", *,
                 indent: int | None = 2) -> str:
    """The full registry snapshot plus the sample series as one JSON doc."""
    return json.dumps(stamp(_result(obs).to_dict()), indent=indent)


def spans_json(obs: "Observability | ObsResult", *,
               indent: int | None = 1) -> str:
    """The causal span trace as one stamped JSON document.

    A single document (kind ``span-trace``) rather than JSON-lines so
    ``scripts/validate_trace.py`` can ``json.load`` it like the other
    schema-stamped artifacts.
    """
    result = _result(obs)
    payload = stamp({"kind": "span-trace", "cycles": result.cycles,
                     "spans": result.spans})
    return json.dumps(payload, indent=indent) + "\n"


def write_spans(obs: "Observability | ObsResult", path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(spans_json(obs))


def folded_stacks(report: Any) -> str:
    """An attribution report as folded stacks (flamegraph collapse format).

    One line per processor x bucket -- ``cpu0;miss_wait 1234`` -- with
    every bucket emitted (zeros included) so per-cpu line sums equal the
    run's total cycles.  Feed to ``flamegraph.pl`` or speedscope.
    """
    from repro.obs.attribution import BUCKETS

    per_pid = getattr(report, "per_pid", None)
    if per_pid is None:
        per_pid = report["per_pid"]
    lines = []
    for entry in sorted(per_pid, key=lambda e: e["pid"]):
        for bucket in BUCKETS:
            lines.append(
                f"cpu{entry['pid']};{bucket} {entry['buckets'][bucket]}")
    return "\n".join(lines) + "\n"


def write_samples(obs: "Observability | ObsResult", path: str) -> None:
    """Write the sample series; format chosen by extension (``.csv`` is
    CSV, ``.json`` the full metrics document, anything else JSON-lines)."""
    if path.endswith(".csv"):
        payload = samples_csv(obs)
    elif path.endswith(".json"):
        payload = metrics_json(obs)
    else:
        payload = samples_jsonl(obs)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(payload)


# -- Chrome trace-event format ----------------------------------------------

#: The single simulated machine is one "process" in the trace.
_TRACE_PID = 0


def _track_order(track: str) -> tuple:
    """Buses first, then processors, each numerically ordered."""
    for prefix, rank in (("bus", 0), ("cpu", 1)):
        if track.startswith(prefix) and track[len(prefix):].isdigit():
            return (rank, int(track[len(prefix):]))
    return (2, track)


def chrome_trace(obs: "Observability | ObsResult") -> dict:
    """The run's timeline as a Chrome trace-event JSON object.

    Cycles are mapped 1:1 to microseconds (the trace-event timestamp
    unit), so Perfetto's time axis reads directly in bus cycles.
    """
    result = _result(obs)
    spans = result.spans
    tracks = sorted({s["track"] for s in result.slices}
                    | {s["track"] for s in spans}, key=_track_order)
    tids = {track: index for index, track in enumerate(tracks)}
    events: list[dict] = [{
        "ph": "M", "pid": _TRACE_PID, "tid": 0, "name": "process_name",
        "args": {"name": "repro simulation"},
    }]
    for track, tid in tids.items():
        events.append({
            "ph": "M", "pid": _TRACE_PID, "tid": tid, "name": "thread_name",
            "args": {"name": track},
        })
        # thread_sort_index keeps bus tracks above the processor tracks.
        events.append({
            "ph": "M", "pid": _TRACE_PID, "tid": tid,
            "name": "thread_sort_index", "args": {"sort_index": tid},
        })
    for s in result.slices:
        events.append({
            "ph": "X", "pid": _TRACE_PID, "tid": tids[s["track"]],
            "name": s["name"], "cat": s["track"],
            "ts": s["start"], "dur": max(s["dur"], 0),
            "args": s.get("args", {}),
        })
    by_id = {span["id"]: span for span in spans}
    for span in spans:
        args = dict(span.get("args") or {})
        args["span_id"] = span["id"]
        events.append({
            "ph": "X", "pid": _TRACE_PID, "tid": tids[span["track"]],
            "name": span["name"], "cat": f"span.{span['kind']}",
            "ts": span["start"], "dur": max(span["dur"], 0),
            "args": args,
        })
        # Parent/cause links become flow arrows; span links always point
        # at earlier span ids, so the flow start never postdates its end.
        for edge, offset in (("parent", 0), ("cause", 1)):
            source = by_id.get(span.get(edge))
            if source is None:
                continue
            flow_id = span["id"] * 2 + offset
            events.append({
                "ph": "s", "pid": _TRACE_PID, "tid": tids[source["track"]],
                "name": edge, "cat": "flow", "id": flow_id,
                "ts": source["start"],
            })
            events.append({
                "ph": "f", "pid": _TRACE_PID, "tid": tids[span["track"]],
                "name": edge, "cat": "flow", "id": flow_id,
                "ts": span["start"], "bp": "e",
            })
    return stamp({
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"cycles": result.cycles,
                      "sample_interval": result.interval},
    })


def write_chrome_trace(obs: "Observability | ObsResult", path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(chrome_trace(obs), handle, indent=1)
        handle.write("\n")


def validate_chrome_trace(payload: Any) -> list[str]:
    """Check a payload against the emitted trace-event schema subset.

    Returns a list of problems (empty when valid).  Checked: the
    top-level object shape, per-event required keys and types for the
    phases this exporter emits, and non-negative timestamps/durations.
    """
    problems: list[str] = []
    if not isinstance(payload, dict):
        return [f"top level must be an object, got {type(payload).__name__}"]
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents must be a list"]
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        ph = event.get("ph")
        if ph not in ("X", "M", "B", "E", "i", "C", "s", "t", "f"):
            problems.append(f"{where}: unknown phase {ph!r}")
            continue
        for key, types in (("name", str), ("pid", int), ("tid", int)):
            if not isinstance(event.get(key), types):
                problems.append(f"{where}: missing/invalid {key!r}")
        if ph in ("s", "t", "f"):
            if not isinstance(event.get("id"), int):
                problems.append(f"{where}: flow event without an 'id'")
            ts = event.get("ts")
            if not isinstance(ts, (int, float)) or ts < 0:
                problems.append(
                    f"{where}: 'ts' must be a non-negative number")
        elif ph == "X":
            for key in ("ts", "dur"):
                value = event.get(key)
                if not isinstance(value, (int, float)) or value < 0:
                    problems.append(
                        f"{where}: {key!r} must be a non-negative number")
        elif ph == "M":
            if not isinstance(event.get("args"), dict):
                problems.append(f"{where}: metadata event without args")
    return problems


def assert_valid_chrome_trace(payload: Any) -> None:
    """Raise ``ValueError`` listing the first few schema violations."""
    problems = validate_chrome_trace(payload)
    if problems:
        shown = "; ".join(problems[:5])
        more = f" (+{len(problems) - 5} more)" if len(problems) > 5 else ""
        raise ValueError(f"invalid Chrome trace: {shown}{more}")
