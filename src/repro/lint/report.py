"""Protocol lint runners and the machine-readable lint report."""

from __future__ import annotations

from repro.common import schema
from repro.lint.rules import Finding, lint_table
from repro.protocols import PROTOCOL_NAMES, get_protocol


def lint_protocol(name: str) -> list[Finding]:
    """Lint one registered protocol's transition table."""
    return lint_table(get_protocol(name).table)


def lint_all() -> dict[str, list[Finding]]:
    """Lint every registered protocol plus the directory home-bank
    policy, keyed by registry name."""
    from repro.directory_backend.table import HOME_BANK_TABLE

    findings = {name: lint_protocol(name) for name in sorted(PROTOCOL_NAMES)}
    findings[HOME_BANK_TABLE.name] = lint_table(HOME_BANK_TABLE)
    return findings


def build_report(findings_by_protocol: dict[str, list[Finding]]) -> dict:
    """Schema-stamped JSON payload for ``repro lint --json``."""
    from repro.directory_backend.table import HOME_BANK_TABLE

    protocols = {}
    for name in sorted(findings_by_protocol):
        findings = findings_by_protocol[name]
        entry: dict = {"ok": not findings,
                       "findings": [f.to_dict() for f in findings]}
        if name in PROTOCOL_NAMES:
            table = get_protocol(name).table
        elif name == HOME_BANK_TABLE.name:
            table = HOME_BANK_TABLE
        else:
            table = None
        if table is not None:
            entry["rules"] = len(table.rules)
            entry["states"] = sorted(
                s.value for s in table.states_mentioned())
        protocols[name] = entry
    payload = {
        "kind": "lint-report",
        "ok": all(entry["ok"] for entry in protocols.values()),
        "protocols": protocols,
    }
    return schema.stamp(payload)
