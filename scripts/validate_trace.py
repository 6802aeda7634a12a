#!/usr/bin/env python
"""Validate JSON artifacts produced by the repro CLI.

Eight artifact shapes are understood:

* Chrome trace-event files (``repro run --timeline``) are checked
  against the schema subset Perfetto/chrome://tracing actually require
  (see :func:`repro.obs.export.validate_chrome_trace`): a
  ``traceEvents`` list whose entries carry the mandatory ``ph``/
  ``name``/``pid``/``tid`` fields, non-negative timestamps on complete
  events, an ``args`` dict on metadata events, and coherent flow
  events where span links are exported.
* Sweep results (``kind == "sweep-result"``, schema v2) are checked for
  coherent resilience fields: one ``point_status`` verdict per point
  with a known status, and ``null`` ``points`` entries only where the
  verdict says the point did not finish OK.  From schema v5 the payload
  must also stamp ``topology`` with a known fabric kind, and from v7
  ``directory_entry`` -- a known sharer-set representation on the
  directory fabric, ``null`` everywhere else.
* Protocol lint reports (``kind == "lint-report"``, from ``repro lint
  --json``) are checked for a coherent verdict: the top-level ``ok``
  must agree with the per-protocol entries, every finding must name a
  known check, and finding-free protocols must be marked ok.
* Causal span traces (``kind == "span-trace"``, from ``repro run
  --spans-out``, schema v4) are checked for a well-formed DAG: ids are
  dense and positional, kinds are known, durations non-negative, and
  every ``parent``/``cause`` link points strictly backward.
* Attribution reports (``kind == "attribution-report"``, from ``repro
  run --attribution``, schema v4) are checked for the exhaustive-
  accounting invariant: every processor carries all eight buckets,
  every bucket is a non-negative integer, and the buckets sum exactly
  to the processor's total cycles.
* Saved scenarios (``kind == "scenario"``, schema v6, the
  ``scenarios/*.json`` corpus) must rebuild into a validating
  :class:`repro.scenario.model.ScenarioSpec`.
* Scenario-fuzzer fixtures (``kind == "scenario-failure"``, schema v6)
  must carry a validating embedded spec, a well-formed choice-index
  schedule, and a named failure.
* Engine benchmark results (``BENCH_engine.json``, schema v4, detected
  by an ``engine`` section) are checked for the keys
  ``scripts/perf_guard.py`` guards: the ``engine`` stepped and
  fast-forward timings, the ``lookup`` microbenchmark ratio, an honest integer ``sweep.available_cpus``, the ``obs``
  hook-overhead timings, (schema v5) the ``topology`` section with
  the snoop-vs-directory traffic crossover and throughput guard, and
  (schema v7) the nested ``topology.representations`` section with
  per-representation msgs/txn + bits/block points and the
  limited-pointer traffic guard.

Usage::

    PYTHONPATH=src python scripts/validate_trace.py trace.json [more.json...]

Exit status 0 when every file validates, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

try:
    from repro.common.schema import SchemaError
except ModuleNotFoundError:  # running from a checkout without install
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from repro.common.schema import SchemaError

from repro.analysis.resilient import POINT_STATUSES
from repro.common.config import TOPOLOGY_KINDS
from repro.directory_backend import DIRECTORY_ENTRY_KINDS
from repro.common.schema import check as check_schema
from repro.lint import CHECKS as LINT_CHECKS
from repro.obs.attribution import BUCKETS
from repro.obs.export import validate_chrome_trace
from repro.obs.tracing import SPAN_KINDS


def validate_sweep_result(payload: dict) -> list[str]:
    """Schema-v2 resilience checks for a ``sweep-result`` payload."""
    errors: list[str] = []
    xs = payload.get("xs", [])
    statuses = payload.get("point_status", [])
    points = payload.get("points", [])
    if len(statuses) != len(xs):
        errors.append(f"expected {len(xs)} point_status entries, "
                      f"got {len(statuses)}")
    if len(points) != len(xs):
        errors.append(f"expected {len(xs)} points entries, "
                      f"got {len(points)}")
    for i, entry in enumerate(statuses):
        status = entry.get("status")
        if status not in POINT_STATUSES:
            errors.append(f"point_status[{i}]: unknown status {status!r}")
        if entry.get("index") != i:
            errors.append(f"point_status[{i}]: index {entry.get('index')!r} "
                          f"out of order")
        if not isinstance(entry.get("attempts"), int) or entry["attempts"] < 1:
            errors.append(f"point_status[{i}]: bad attempts "
                          f"{entry.get('attempts')!r}")
        if status == "ok" and entry.get("error") is not None:
            errors.append(f"point_status[{i}]: ok point carries an error")
        if i < len(points):
            if status == "ok" and points[i] is None:
                errors.append(f"points[{i}]: null for an ok point")
            if status != "ok" and points[i] is not None:
                errors.append(f"points[{i}]: stats present for a "
                              f"{status} point")
    resilience = payload.get("resilience")
    if not isinstance(resilience, dict):
        errors.append("missing resilience counters")
    errors.extend(_check_topology_field(payload))
    return errors


def _check_topology_field(payload: dict) -> list[str]:
    """Schema-v5 ``topology`` and schema-v7 ``directory_entry`` stamps
    on run/sweep results: required from their introducing versions on,
    and always coherent when present."""
    errors: list[str] = []
    topology = payload.get("topology")
    version = payload.get("schema_version")
    if topology is None:
        if isinstance(version, int) and version >= 5:
            errors.append(f"missing topology (required since schema v5; "
                          f"expected one of {', '.join(TOPOLOGY_KINDS)})")
        return errors
    if topology not in TOPOLOGY_KINDS:
        return [f"topology: unknown fabric kind {topology!r}"]
    entry = payload.get("directory_entry")
    if isinstance(version, int) and version >= 7:
        if "directory_entry" not in payload:
            errors.append("missing directory_entry (required since "
                          "schema v7)")
        elif topology == "directory":
            if entry not in DIRECTORY_ENTRY_KINDS:
                errors.append(
                    f"directory_entry: unknown representation {entry!r} "
                    f"(expected one of {', '.join(DIRECTORY_ENTRY_KINDS)})")
        elif entry is not None:
            errors.append(f"directory_entry: {entry!r} stamped on the "
                          f"{topology} fabric (must be null off the "
                          f"directory)")
    return errors


def validate_lint_report(payload: dict) -> list[str]:
    """Coherence checks for a ``repro lint --json`` report."""
    errors: list[str] = []
    protocols = payload.get("protocols")
    if not isinstance(protocols, dict) or not protocols:
        return ["missing per-protocol lint entries"]
    known_checks = set(LINT_CHECKS) | {"structure"}
    for name, entry in sorted(protocols.items()):
        findings = entry.get("findings")
        if not isinstance(findings, list):
            errors.append(f"protocols[{name}]: missing findings list")
            continue
        if entry.get("ok") is not (not findings):
            errors.append(f"protocols[{name}]: ok flag disagrees with "
                          f"{len(findings)} finding(s)")
        for i, finding in enumerate(findings):
            if finding.get("check") not in known_checks:
                errors.append(f"protocols[{name}].findings[{i}]: unknown "
                              f"check {finding.get('check')!r}")
            if not finding.get("detail"):
                errors.append(f"protocols[{name}].findings[{i}]: empty detail")
    expected_ok = all(not entry.get("findings") for entry in protocols.values())
    if payload.get("ok") is not expected_ok:
        errors.append("top-level ok flag disagrees with per-protocol entries")
    return errors


def validate_span_trace(payload: dict) -> list[str]:
    """Schema-v4 DAG checks for a ``span-trace`` payload."""
    errors: list[str] = []
    cycles = payload.get("cycles")
    if not isinstance(cycles, int) or isinstance(cycles, bool) or cycles < 0:
        errors.append(f"cycles: bad value {cycles!r}")
    spans = payload.get("spans")
    if not isinstance(spans, list):
        return [*errors, "missing spans list"]
    for i, span in enumerate(spans):
        if not isinstance(span, dict):
            errors.append(f"spans[{i}]: not an object")
            continue
        if span.get("id") != i:
            errors.append(f"spans[{i}]: id {span.get('id')!r} is not "
                          f"positional")
        if span.get("kind") not in SPAN_KINDS:
            errors.append(f"spans[{i}]: unknown kind {span.get('kind')!r}")
        for key in ("name", "track"):
            if not span.get(key) or not isinstance(span[key], str):
                errors.append(f"spans[{i}].{key}: bad value "
                              f"{span.get(key)!r}")
        for key in ("start", "dur"):
            value = span.get(key)
            if (not isinstance(value, int) or isinstance(value, bool)
                    or value < 0):
                errors.append(f"spans[{i}].{key}: bad value {value!r}")
        for key in ("parent", "cause"):
            link = span.get(key)
            if link is None:
                continue
            if not isinstance(link, int) or not 0 <= link < i:
                errors.append(f"spans[{i}].{key}: link {link!r} does not "
                              f"point strictly backward")
    return errors


def validate_attribution_report(payload: dict) -> list[str]:
    """Schema-v4 exhaustive-accounting checks for an
    ``attribution-report`` payload."""
    errors: list[str] = []
    per_pid = payload.get("per_pid")
    if not isinstance(per_pid, list) or not per_pid:
        return ["missing per_pid entries"]
    for entry in per_pid:
        pid = entry.get("pid")
        buckets = entry.get("buckets")
        if not isinstance(buckets, dict):
            errors.append(f"cpu{pid}: missing buckets")
            continue
        if set(buckets) != set(BUCKETS):
            errors.append(f"cpu{pid}: bucket keys {sorted(buckets)} do not "
                          f"match the canonical eight")
            continue
        for bucket in BUCKETS:
            value = buckets[bucket]
            if (not isinstance(value, int) or isinstance(value, bool)
                    or value < 0):
                errors.append(f"cpu{pid}.{bucket}: bad value {value!r}")
        total = entry.get("total")
        if isinstance(total, int) and sum(buckets.values()) != total:
            errors.append(f"cpu{pid}: buckets sum to "
                          f"{sum(buckets.values())}, expected {total}")
        elif not isinstance(total, int):
            errors.append(f"cpu{pid}: bad total {total!r}")
    totals = payload.get("totals")
    if not isinstance(totals, dict) or set(totals) != set(BUCKETS):
        errors.append("missing or mis-keyed totals section")
    for key in ("handoffs", "block_waits"):
        if not isinstance(payload.get(key), dict):
            errors.append(f"missing {key} section")
    return errors


#: Timing keys the ``engine`` section must carry.
_ENGINE_TIMING_KEYS = (
    "cycles", "stepped_seconds", "stepped_cycles_per_sec",
    "fast_forward_seconds", "fast_forward_cycles_per_sec", "speedup",
)


def validate_bench_engine(payload: dict) -> list[str]:
    """Schema-v4 shape checks for a ``BENCH_engine.json`` payload."""
    errors: list[str] = []

    engine = payload.get("engine")
    if not isinstance(engine, dict):
        errors.append("missing engine section")
    else:
        for key in _ENGINE_TIMING_KEYS:
            value = engine.get(key)
            if not isinstance(value, (int, float)) or value <= 0:
                errors.append(f"engine.{key}: bad value {value!r}")

    lookup = payload.get("lookup")
    if not isinstance(lookup, dict):
        errors.append("missing lookup section")
    else:
        for key in ("speedup", "probes", "lookups",
                    "scan_seconds", "bits_seconds"):
            value = lookup.get(key)
            if not isinstance(value, (int, float)) or value <= 0:
                errors.append(f"lookup.{key}: bad value {value!r}")

    sweep = payload.get("sweep")
    if not isinstance(sweep, dict):
        errors.append("missing sweep section")
    else:
        cpus = sweep.get("available_cpus")
        if not isinstance(cpus, int) or isinstance(cpus, bool) or cpus < 1:
            errors.append(f"sweep.available_cpus: bad value {cpus!r}")
        for key in ("scaling", "serial_seconds", "parallel_seconds"):
            value = sweep.get(key)
            if not isinstance(value, (int, float)) or value <= 0:
                errors.append(f"sweep.{key}: bad value {value!r}")
        for key in ("points", "jobs"):
            value = sweep.get(key)
            if not isinstance(value, int) or value < 1:
                errors.append(f"sweep.{key}: bad value {value!r}")

    obs = payload.get("obs")
    if not isinstance(obs, dict):
        errors.append("missing obs section")
    else:
        for key in ("null_seconds", "tracing_off_seconds",
                    "tracing_on_seconds"):
            value = obs.get(key)
            if not isinstance(value, (int, float)) or value <= 0:
                errors.append(f"obs.{key}: bad value {value!r}")
        # Overheads are same-host ratios minus one; timing jitter can
        # legitimately make them slightly negative, so only the type is
        # checked here -- scripts/perf_guard.py owns the ceiling.
        for key in ("overhead_disabled", "overhead_tracing"):
            if not isinstance(obs.get(key), (int, float)):
                errors.append(f"obs.{key}: bad value {obs.get(key)!r}")

    topology = payload.get("topology")
    version = payload.get("schema_version")
    if topology is None:
        if isinstance(version, int) and version >= 5:
            errors.append("missing topology section (required since "
                          "schema v5)")
    elif not isinstance(topology, dict):
        errors.append(f"topology: expected an object, got "
                      f"{type(topology).__name__}")
    else:
        crossover = topology.get("crossover")
        if not isinstance(crossover, dict):
            errors.append("topology.crossover: missing")
        else:
            for key in ("snoop_msgs_per_txn", "directory_msgs_per_txn"):
                value = crossover.get(key)
                if not isinstance(value, (int, float)) or value <= 0:
                    errors.append(f"topology.crossover.{key}: "
                                  f"bad value {value!r}")
        guard = topology.get("guard")
        if not isinstance(guard, dict):
            errors.append("topology.guard: missing")
        else:
            for key in ("snoop16_cycles_per_sec",
                        "directory256_cycles_per_sec", "ratio"):
                value = guard.get(key)
                if not isinstance(value, (int, float)) or value <= 0:
                    errors.append(f"topology.guard.{key}: "
                                  f"bad value {value!r}")
        points = topology.get("points")
        if not isinstance(points, list) or not points:
            errors.append("topology.points: missing per-scale entries")
        else:
            for i, point in enumerate(points):
                if not isinstance(point, dict):
                    errors.append(f"topology.points[{i}]: not an object")
                    continue
                n = point.get("processors")
                if not isinstance(n, int) or n < 1:
                    errors.append(f"topology.points[{i}].processors: "
                                  f"bad value {n!r}")
                fabrics = point.get("fabrics")
                if not isinstance(fabrics, dict) or not fabrics:
                    errors.append(f"topology.points[{i}].fabrics: missing")
                    continue
                for kind in fabrics:
                    if kind not in TOPOLOGY_KINDS:
                        errors.append(f"topology.points[{i}]: unknown "
                                      f"fabric kind {kind!r}")
        errors.extend(_check_bench_representations(topology, version))
    return errors


def _check_bench_representations(topology: dict, version) -> list[str]:
    """Schema-v7 ``topology.representations`` checks: every point
    carries all three sharer-set representations with positive traffic
    and storage numbers, and the guard section carries the ratio
    ``scripts/perf_guard.py`` enforces."""
    reps = topology.get("representations")
    if reps is None:
        if isinstance(version, int) and version >= 7:
            return ["topology.representations: missing (required since "
                    "schema v7)"]
        return []
    errors: list[str] = []
    if not isinstance(reps, dict):
        return [f"topology.representations: expected an object, got "
                f"{type(reps).__name__}"]
    points = reps.get("points")
    if not isinstance(points, list) or not points:
        errors.append("topology.representations.points: missing "
                      "per-scale entries")
    else:
        for i, point in enumerate(points):
            where = f"topology.representations.points[{i}]"
            if not isinstance(point, dict):
                errors.append(f"{where}: not an object")
                continue
            entries = point.get("entries")
            if not isinstance(entries, dict):
                errors.append(f"{where}.entries: missing")
                continue
            if set(entries) != set(DIRECTORY_ENTRY_KINDS):
                errors.append(f"{where}.entries: keys {sorted(entries)} "
                              f"do not match the representation kinds")
                continue
            for kind, entry in entries.items():
                for key in ("msgs_per_txn", "bits_per_block"):
                    value = entry.get(key) if isinstance(entry, dict) \
                        else None
                    if not isinstance(value, (int, float)) or value <= 0:
                        errors.append(f"{where}.entries[{kind}].{key}: "
                                      f"bad value {value!r}")
    guard = reps.get("guard")
    if not isinstance(guard, dict):
        errors.append("topology.representations.guard: missing")
    else:
        for key in ("full_vector_msgs_per_txn",
                    "limited_pointer_msgs_per_txn", "ratio"):
            value = guard.get(key)
            if not isinstance(value, (int, float)) or value <= 0:
                errors.append(f"topology.representations.guard.{key}: "
                              f"bad value {value!r}")
    return errors


def validate_scenario(payload: dict) -> list[str]:
    """Structural checks for a saved declarative scenario (kind
    ``scenario``, schema v6): the payload must rebuild into a
    *validating* :class:`repro.scenario.model.ScenarioSpec`."""
    from repro.common.errors import ScenarioError
    from repro.scenario.model import ScenarioSpec

    try:
        spec = ScenarioSpec.from_dict(payload)
    except (ScenarioError, KeyError, TypeError, ValueError) as exc:
        return [f"invalid scenario: {exc}"]
    errors: list[str] = []
    if not spec.steps:
        errors.append("scenario has no steps")
    if not spec.roles:
        errors.append("scenario has no roles")
    return errors


def validate_scenario_failure(payload: dict) -> list[str]:
    """Checks for a shrunk scenario-fuzzer fixture (kind
    ``scenario-failure``, schema v6): the embedded spec must validate,
    the schedule must be a list of non-negative choice indices, and the
    failure must name a kind."""
    from repro.common.errors import ScenarioError
    from repro.scenario.fuzz import ScenarioFailure

    try:
        fixture = ScenarioFailure.from_dict(payload)
    except (ScenarioError, KeyError, TypeError, ValueError) as exc:
        return [f"invalid scenario-failure: {exc}"]
    errors: list[str] = []
    if any(i < 0 for i in fixture.schedule):
        errors.append("schedule carries a negative choice index")
    if not fixture.failure.kind:
        errors.append("failure kind is empty")
    if fixture.processors < 1:
        errors.append(f"bad processors {fixture.processors!r}")
    return errors


def _describe(payload: dict) -> str:
    if "traceEvents" in payload:
        return f"{len(payload['traceEvents'])} trace events"
    if payload.get("kind") == "lint-report":
        protocols = payload.get("protocols", {})
        clean = sum(1 for entry in protocols.values() if entry.get("ok"))
        return f"lint report, {clean}/{len(protocols)} protocols clean"
    if payload.get("kind") == "span-trace":
        return (f"span trace, {len(payload.get('spans', []))} spans over "
                f"{payload.get('cycles')} cycles")
    if payload.get("kind") == "scenario":
        return (f"scenario {payload.get('name')!r}, "
                f"{len(payload.get('steps', []))} steps, "
                f"{len(payload.get('roles', []))} roles")
    if payload.get("kind") == "scenario-failure":
        failure = payload.get("failure", {})
        return (f"scenario failure, {failure.get('kind')} on "
                f"{payload.get('protocol')}"
                + (f" (mutation {payload['mutation']})"
                   if payload.get("mutation") else ""))
    if payload.get("kind") == "attribution-report":
        per_pid = payload.get("per_pid", [])
        return (f"attribution, {len(per_pid)} cpus, "
                f"{payload.get('cycles')} cycles, contended block "
                f"{payload.get('contended_block')}")
    if "engine" in payload and "kind" not in payload:
        engine = payload.get("engine", {})
        lookup = payload.get("lookup", {})
        return (f"engine bench, ff {engine.get('speedup', 0):.1f}x, "
                f"lookup {lookup.get('speedup', 0):.1f}x")
    statuses = [p.get("status") for p in payload.get("point_status", [])]
    ok = sum(1 for s in statuses if s == "ok")
    return f"sweep result, {ok}/{len(statuses)} points ok"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="+", help="trace JSON files to check")
    args = parser.parse_args(argv)

    failures = 0
    for path in args.files:
        try:
            with open(path, encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"{path}: unreadable: {exc}", file=sys.stderr)
            failures += 1
            continue
        if isinstance(payload, dict) and payload.get("kind") == "sweep-result":
            errors = validate_sweep_result(payload)
        elif isinstance(payload, dict) and payload.get("kind") == "lint-report":
            errors = validate_lint_report(payload)
        elif isinstance(payload, dict) and payload.get("kind") == "span-trace":
            errors = validate_span_trace(payload)
        elif (isinstance(payload, dict)
              and payload.get("kind") == "attribution-report"):
            errors = validate_attribution_report(payload)
        elif isinstance(payload, dict) and payload.get("kind") == "scenario":
            errors = validate_scenario(payload)
        elif (isinstance(payload, dict)
              and payload.get("kind") == "scenario-failure"):
            errors = validate_scenario_failure(payload)
        elif (isinstance(payload, dict) and "engine" in payload
              and "kind" not in payload):
            errors = validate_bench_engine(payload)
        else:
            errors = validate_chrome_trace(payload)
        try:
            check_schema(payload, where=path)
        except SchemaError as exc:
            errors = [*errors, str(exc)]
        if errors:
            failures += 1
            for error in errors:
                print(f"{path}: {error}", file=sys.stderr)
        else:
            print(f"{path}: OK ({_describe(payload)})")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
