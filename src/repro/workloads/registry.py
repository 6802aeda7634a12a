"""Named workload registry shared by the CLI and :mod:`repro.api`.

Each entry maps a CLI-friendly name to a builder taking the system
config and a lock style.  Workloads that generate explicit lock/unlock
ops honor the style; *style-blind* reference-stream workloads
(:data:`STYLE_BLIND_WORKLOADS`) contain no synchronization at all, and
passing an explicit style to one raises a
:class:`~repro.common.errors.LockStyleIgnoredWarning` instead of being
silently dropped.  The per-protocol run defaults (block size, lock
style, strict verification) live here too so every entry point -- the
CLI, :mod:`repro.api`, the model checker, the conformance battery and
the comparison runner -- resolves them identically.

Scenario-built entries (``scenario:*``) compile declarative
:mod:`repro.scenario` specs to programs at build time; they are ordinary
registry citizens, so the CLI, :mod:`repro.api`, and sweep worker
processes pick them up with no special casing.  The scenario DSL loads
only when one of them is built.
"""

from __future__ import annotations

import warnings
from typing import Callable

from repro import workloads
from repro.common.config import SystemConfig
from repro.common.errors import LockStyleIgnoredWarning
from repro.processor.program import LockStyle, Program


def _lowered(programs, style: LockStyle):
    return [p.lowered(style) for p in programs]


# Each builder resolves its generator at call time, so a run imports
# only the generator module it uses (see :mod:`repro.workloads`).
WORKLOADS: dict[str, Callable[[SystemConfig, LockStyle], list[Program]]] = {
    "lock-contention":
        lambda cfg, style: workloads.lock_contention(cfg, lock_style=style),
    "producer-consumer":
        lambda cfg, style: workloads.producer_consumer(cfg, lock_style=style),
    "request-queue":
        lambda cfg, style: workloads.request_queue(cfg, lock_style=style),
    "sharing": lambda cfg, style: workloads.interleaved_sharing(cfg),
    "scale-probe": lambda cfg, style: workloads.scale_probe(cfg),
    "migration": lambda cfg, style: workloads.migration(cfg),
    "process-switch": lambda cfg, style: workloads.process_switch(cfg),
    "smith": lambda cfg, style: workloads.smith_stream(cfg),
    "prolog": lambda cfg, style: _lowered(
        workloads.prolog_and_parallel(cfg), style),
    "sleep-wait": lambda cfg, style: _lowered(workloads.sleep_wait(cfg), style),
}

#: Reference-stream workloads that contain no lock/unlock ops: a lock
#: style cannot change what they generate.
STYLE_BLIND_WORKLOADS = frozenset(
    {"sharing", "scale-probe", "migration", "process-switch", "smith"})


#: The names of :data:`repro.scenario.library.SCENARIOS`, spelled out so
#: registering their ``scenario:*`` keys does not load the DSL (a test
#: keeps the two equal).
SCENARIO_NAMES = ("lock-contention", "producer-consumer", "request-queue")


def _scenario_builder(name: str):
    def build(cfg: SystemConfig, style: LockStyle) -> list[Program]:
        from repro.scenario.compile import compile_scenario
        from repro.scenario.library import SCENARIOS

        return compile_scenario(SCENARIOS[name](), cfg, lock_style=style)
    return build


# Scenario-built twins of the ported workloads: bit-identical programs,
# built from the declarative specs instead of the generator functions.
# Registered at import time so CLI choices and sweep workers see them.
for _name in SCENARIO_NAMES:
    WORKLOADS[f"scenario:{_name}"] = _scenario_builder(_name)


def default_words_per_block(protocol: str) -> int:
    """The paper's four-word blocks, except Rudolph-Segall's one-word."""
    return 1 if protocol == "rudolph-segall" else 4


def default_lock_style(protocol: str) -> LockStyle:
    """Cache-lock on the proposal, test-and-test-and-set elsewhere."""
    return (LockStyle.CACHE_LOCK if protocol == "bitar-despain"
            else LockStyle.TTAS)


def default_strict_verify(protocol: str) -> bool:
    """Strict write verification, except on classic write-through,
    whose stale reads are legitimate (Section F.1)."""
    return protocol != "write-through"


def canonical_workload_name(name: str) -> str:
    """Resolve ``name`` to its registry key.

    Registry keys are hyphenated (``scale-probe``) while the Python API
    exports the same workloads under importable underscore names
    (``scale_probe``); accept either spelling so the two namespaces
    cannot drift apart for callers.  Raises ``KeyError`` listing the
    valid names for anything else.
    """
    if name in WORKLOADS:
        return name
    hyphenated = name.replace("_", "-")
    if hyphenated in WORKLOADS:
        return hyphenated
    known = ", ".join(sorted(WORKLOADS))
    raise KeyError(f"unknown workload {name!r} (known: {known})")


def effective_lock_style(name: str, protocol: str,
                         style: LockStyle | None = None) -> LockStyle | None:
    """The lock style a run of ``name`` actually uses.

    ``None`` for style-blind workloads (there are no locks to style);
    otherwise the explicit ``style``, defaulted per protocol.  Unknown
    names fall through to the styled path so result stamping never
    raises.
    """
    try:
        name = canonical_workload_name(name)
    except KeyError:
        pass
    if name in STYLE_BLIND_WORKLOADS:
        return None
    return style or default_lock_style(protocol)


def build_workload(name: str, config: SystemConfig,
                   style: LockStyle | None = None) -> list[Program]:
    """Instantiate a registered workload for ``config``.

    Accepts hyphenated or underscore names.  An explicit ``style`` on a
    style-blind workload warns (:class:`LockStyleIgnoredWarning`) --
    the request is misleading, not wrong, so the run proceeds.
    """
    name = canonical_workload_name(name)
    if style is not None and name in STYLE_BLIND_WORKLOADS:
        warnings.warn(
            f"workload {name!r} is a reference stream with no lock/unlock "
            f"operations; the requested lock style {style.value!r} has no "
            f"effect", LockStyleIgnoredWarning, stacklevel=2)
    builder = WORKLOADS[name]
    return builder(config, style or default_lock_style(config.protocol))
