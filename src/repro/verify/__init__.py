"""Verification: write-stamp oracle, coherence invariants, conformance."""

from repro.common.lazy import lazy_exports

# The engine imports ``invariants`` and ``oracle`` directly; the
# conformance battery (and with it ``sim.harness``) loads only when used.
__all__ = lazy_exports(globals(), {
    "conformance": ("Finding", "check_conformance"),
    "invariants": ("InvariantChecker",),
    "oracle": ("StaleRead", "WriteOracle"),
})
