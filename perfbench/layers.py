"""Per-layer tracing for the benchmark's traced run.

A :class:`LayerTracer` replaces the public functions of each
``src/repro`` layer with counting, timing wrappers for the duration of a
``with`` block and puts every original back on exit.  Nothing in
``src/repro`` knows about it.

A call's *self time* is its duration minus the time spent in wrapped
calls nested inside it, so each layer's self time is disjoint from every
other's and the layers plus the unwrapped remainder add up to the traced
total.  Per-call spans are aggregated into counters and per-layer sums
as they close: ``snoop256`` makes millions of cache calls, so storing
them is not an option.  Only named phases (:meth:`LayerTracer.phase`)
are kept as spans.
"""

from __future__ import annotations

import functools
import gc
import inspect
import time
from collections import Counter
from contextlib import contextmanager

LAYERS = ("workloads", "protocols", "sim", "processor", "bus", "cache",
          "directory_backend", "obs", "verify")

#: Sharer-set operations of the directory's entries.
SHARER_OPS = ("listed", "enroll", "discard", "refresh")
#: Message kinds the directory's home banks tally.
MESSAGE_KINDS = ("requests", "responses", "forwards", "invalidations",
                 "acks")
#: Protocol hooks wrapped on the class the engine resolves: the
#: ``processor_*`` and ``snoop_*`` families plus these.  ``__init__``
#: resolves the compiled dispatch table, part of a run's setup.
PROTOCOL_HOOKS = ("__init__", "after_txn", "after_fill",
                  "revalidate_request")


def _class_targets():
    """``(layer, owner, attribute names)`` for every wrapped class and
    module attribute except the protocol class, which is only known
    once the engine resolves it."""
    from repro.bus.bus import Bus
    from repro.bus.multibus import MultiBusSystem
    from repro.cache.cache import SnoopingCache
    from repro.directory_backend import representations, system
    from repro.obs.core import Observability
    from repro.processor.processor import Processor
    from repro.sim.engine import Simulator
    from repro.verify.invariants import InvariantChecker
    from repro.verify.oracle import WriteOracle

    import harness

    obs_hooks = tuple(name for name in vars(Observability)
                      if name.startswith("record_")) + (
        "on_advance", "on_run_end", "result")
    return [
        # The benchmark builds its programs through these names.
        ("workloads", harness, ("lock_contention", "scale_probe")),
        # ``_finish_cycle`` runs once per executed event cycle on both
        # engines, so its call count is the engine's event count.
        ("sim", Simulator, ("__init__", "run", "step", "_finish_cycle")),
        ("processor", Processor, ("tick", "advance_quiet",
                                  "next_event_cycle")),
        ("bus", Bus, ("step", "next_event_cycle")),
        ("bus", MultiBusSystem, ("step", "next_event_cycle")),
        ("cache", SnoopingCache, ("access", "snoop", "cares_about",
                                  "has_bus_request", "has_request_hint",
                                  "take_bus_transaction",
                                  "on_txn_granted")),
        ("directory_backend", representations.FullBitVector, SHARER_OPS),
        ("directory_backend", representations.LimitedPointerSet,
         SHARER_OPS),
        ("directory_backend", representations.CoarseVector, SHARER_OPS),
        # The home-bank table lookup's state and guard derivations, as
        # the fabric module imported them.
        ("directory_backend", system, ("home_state_of", "guard_bits_of")),
        ("directory_backend", system.DirectorySystem, ("message_tallies",)),
        ("obs", Observability, obs_hooks),
        ("verify", WriteOracle, ("record_write", "latest",
                                 "recorded_words", "check_read")),
        ("verify", InvariantChecker, ("check_all",)),
    ]


def _protocol_hooks(cls) -> list[str]:
    return sorted(
        name for name in dir(cls)
        if (name.startswith(("processor_", "snoop_"))
            or name in PROTOCOL_HOOKS)
        and inspect.isfunction(inspect.getattr_static(cls, name)))


class LayerTracer:
    """Counts and self time per layer for the calls made inside it.

    ``calls`` is keyed ``"<layer>.<function>"``; ``self_s`` by layer.
    ``outer_s`` is the summed duration of wrapped calls made with no
    wrapped caller, which is what the layers' self times add up to.
    """

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.spans: list[dict] = []
        #: ``self_s`` as it stood when set-up ended (see traced_run).
        self.setup_self_s: dict = {}
        self._root = [0.0]
        self._stack: list[float] = []
        self._patches: list[tuple] = []
        self._patched_protocols: set = set()

    @property
    def outer_s(self) -> float:
        return self._root[0]

    # -- wrapping -------------------------------------------------------

    def wrap(self, layer: str, fn, key: str | None = None):
        """``fn`` wrapped to count its calls under ``key`` and charge
        its self time to ``layer``."""
        key = key or f"{layer}.{fn.__name__}"
        calls = self.calls
        self_s = self.self_s
        stack = self._stack
        root = self._root
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[key] += 1
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_s[layer] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
                else:
                    root[0] += elapsed
        return traced

    def _patch(self, owner, name: str, replacement) -> None:
        owned = name in vars(owner)
        self._patches.append((owner, name, owned, vars(owner).get(name)))
        setattr(owner, name, replacement)

    def _patch_function(self, layer: str, owner, name: str) -> None:
        original = inspect.getattr_static(owner, name)
        if not (inspect.isfunction(original)
                or inspect.ismethoddescriptor(original)):
            raise TypeError(f"{owner!r}.{name} is not a plain function")
        label = getattr(owner, "__qualname__", owner.__name__)
        key = f"{layer}.{label.rsplit('.', 1)[-1]}.{name}"
        self._patch(owner, name, self.wrap(layer, original, key))

    def _resolving_protocol(self, get_protocol):
        """Wrap the engine's protocol lookup; wrap the hooks of each
        class it returns before the engine instantiates it."""
        timed = self.wrap("protocols", get_protocol)

        @functools.wraps(get_protocol)
        def resolve(*args, **kwargs):
            cls = timed(*args, **kwargs)
            if cls not in self._patched_protocols:
                self._patched_protocols.add(cls)
                for name in _protocol_hooks(cls):
                    self._patch_function("protocols", cls, name)
            return cls
        return resolve

    def install(self) -> None:
        from repro.sim import engine

        for layer, owner, names in _class_targets():
            for name in names:
                self._patch_function(layer, owner, name)
        self._patch(engine, "get_protocol",
                    self._resolving_protocol(engine.get_protocol))

    def restore(self) -> None:
        """Put back every patched attribute, newest first."""
        while self._patches:
            owner, name, owned, original = self._patches.pop()
            if owned:
                setattr(owner, name, original)
            else:
                delattr(owner, name)
        self._patched_protocols.clear()

    def __enter__(self) -> "LayerTracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- phases ---------------------------------------------------------

    @contextmanager
    def phase(self, name: str, parent: str | None = None):
        """Keep one span: a named phase of the benchmark itself."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans.append({"name": name, "parent": parent,
                               "start": start, "end": time.perf_counter()})

    def span_s(self, name: str) -> float:
        span = next(s for s in self.spans if s["name"] == name)
        return span["end"] - span["start"]



def traced_run(harness, workload, seed: int):
    """Set up, run and check one simulation under a :class:`LayerTracer`.

    Returns ``(tracer, sim, stats, payload)``; the tracer is already
    restored.  Setup phases are kept as spans, and the layers' self
    times at the end of setup are kept as ``tracer.setup_self_s``."""
    tracer = LayerTracer()
    with tracer:
        with tracer.phase("traced"):
            with tracer.phase("setup", "traced"):
                config = harness.config_for(workload)
                with tracer.phase("workloads.build", "setup"):
                    programs = harness.build_programs(workload, config, seed)
                with tracer.phase("sim.construct", "setup"):
                    sim = harness.construct(workload, config, programs)
            tracer.setup_self_s = dict(tracer.self_s)
            gc.collect()
            with tracer.phase("run", "traced"):
                stats = sim.run()
            with tracer.phase("finish", "traced"):
                payload = harness.finish(sim, stats)
    return tracer, sim, stats, payload


def layer_metrics(tracer: LayerTracer, sim, stats) -> dict:
    """``{name: (value, unit)}`` for every per-layer metric except
    ``trace.overhead``, which needs the untraced run time."""
    calls = tracer.calls

    def count(layer: str, names=None) -> int:
        return sum(n for key, n in calls.items()
                   if key.startswith(layer + ".")
                   and (names is None or key.rsplit(".", 1)[1] in names))

    txns = sum(stats.txn_counts.values())
    events = calls["sim.Simulator._finish_cycle"]
    bus_steps = calls["bus.Bus.step"]
    polls = (calls["cache.SnoopingCache.has_bus_request"]
             + calls["cache.SnoopingCache.has_request_hint"])
    references = (stats.read_hits + stats.read_misses + stats.write_hits
                  + stats.write_misses)
    tallies = (sim.bus.message_tallies()
               if hasattr(sim.bus, "message_tallies") else {})
    if not set(tallies) <= set(MESSAGE_KINDS):
        raise ValueError(f"untracked message kinds: "
                         f"{sorted(set(tallies) - set(MESSAGE_KINDS))}")
    total_s = tracer.span_s("traced")
    metrics = {
        "workloads.build_s": (tracer.span_s("workloads.build"), "s"),
        "protocols.setup_s": (tracer.setup_self_s["protocols"], "s"),
        "protocols.calls_per_txn": (
            (count("protocols") - calls["protocols.get_protocol"]) / txns,
            "calls/txn"),
        "sim.construct_s": (tracer.span_s("sim.construct"), "s"),
        "sim.events": (events, "count"),
        "sim.cycles_per_event": (stats.cycles / events, "cycles/event"),
        "processor.tick_calls": (calls["processor.Processor.tick"],
                                 "count"),
        "processor.advance_quiet_calls": (
            calls["processor.Processor.advance_quiet"], "count"),
        "bus.step_calls": (bus_steps, "count"),
        "bus.polls_per_step": (polls / bus_steps, "polls/step"),
        "bus.utilization": (stats.bus_utilization, "fraction"),
        "bus.mean_wait_cycles": (stats.mean_bus_wait, "cycles"),
        "cache.access_calls": (calls["cache.SnoopingCache.access"],
                               "count"),
        "cache.snoops_per_txn": (calls["cache.SnoopingCache.snoop"] / txns,
                                 "snoops/txn"),
        "cache.miss_ratio": (
            (stats.read_misses + stats.write_misses) / references,
            "fraction"),
        "cache.invalidations_per_txn": (
            stats.invalidations_received / txns, "invals/txn"),
        "directory_backend.sharer_ops": (
            count("directory_backend", SHARER_OPS), "count"),
        "obs.hook_calls": (count("obs") - calls["obs.Observability.result"],
                           "count"),
        "trace.total_s": (total_s, "s"),
        "trace.unwrapped_s": (total_s - tracer.outer_s, "s"),
    }
    for kind in MESSAGE_KINDS:
        metrics[f"directory_backend.msgs.{kind}"] = (tallies.get(kind, 0),
                                                     "count")
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (tracer.self_s[layer], "s")
    return metrics
