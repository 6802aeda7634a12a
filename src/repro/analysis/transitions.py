"""Figure 10: the proposal's cache-state transition diagram.

The arcs are enumerated by *driving the implementation*: for every start
state a fresh two-cache system is set up, the line is brought to that
state by a scripted op sequence, the stimulus is applied, and the
resulting state recorded.  ``EXPECTED_PROCESSOR_ARCS`` and
``EXPECTED_BUS_ARCS`` transcribe the figure (processor arcs carry the
third label field, the status in other caches, exactly as the figure's
arc labels do); tests assert the enumeration matches.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cache.state import CacheState
from repro.common.errors import ProgramError
from repro.processor import isa
from repro.sim.harness import ManualSystem

BLOCK = 0

#: Environment field of a processor arc label: what other caches hold.
ALONE = "alone"  # no other cache has the block
SHARED = "shared"  # another cache holds a read copy
DIRTY_ELSEWHERE = "dirty-elsewhere"  # another cache is a dirty source
LOCKED_ELSEWHERE = "locked-elsewhere"

#: (start state, processor request, other-cache status) -> end state.
#: "wait" means the access is refused and the cache busy-waits (note 1 of
#: the figure); the line stays INVALID.
EXPECTED_PROCESSOR_ARCS: dict[tuple[CacheState, str, str], CacheState | str] = {
    (CacheState.INVALID, "read", ALONE): CacheState.WRITE_CLEAN,  # Figure 1
    (CacheState.INVALID, "read", SHARED): CacheState.READ_SOURCE_CLEAN,
    (CacheState.INVALID, "read", DIRTY_ELSEWHERE): CacheState.READ_SOURCE_DIRTY,
    (CacheState.INVALID, "write", ALONE): CacheState.WRITE_DIRTY,
    (CacheState.INVALID, "write", SHARED): CacheState.WRITE_DIRTY,
    (CacheState.INVALID, "write", DIRTY_ELSEWHERE): CacheState.WRITE_DIRTY,
    (CacheState.INVALID, "lock", ALONE): CacheState.LOCK,
    (CacheState.INVALID, "lock", SHARED): CacheState.LOCK,
    (CacheState.INVALID, "lock", DIRTY_ELSEWHERE): CacheState.LOCK,
    (CacheState.INVALID, "lock", LOCKED_ELSEWHERE): "wait",
    (CacheState.READ, "read", SHARED): CacheState.READ,
    (CacheState.READ, "write", SHARED): CacheState.WRITE_DIRTY,
    (CacheState.READ, "lock", SHARED): CacheState.LOCK,
    (CacheState.READ_SOURCE_CLEAN, "read", SHARED): CacheState.READ_SOURCE_CLEAN,
    (CacheState.READ_SOURCE_CLEAN, "write", SHARED): CacheState.WRITE_DIRTY,
    (CacheState.READ_SOURCE_CLEAN, "lock", SHARED): CacheState.LOCK,
    (CacheState.READ_SOURCE_DIRTY, "read", SHARED): CacheState.READ_SOURCE_DIRTY,
    (CacheState.READ_SOURCE_DIRTY, "write", SHARED): CacheState.WRITE_DIRTY,
    (CacheState.READ_SOURCE_DIRTY, "lock", SHARED): CacheState.LOCK,
    (CacheState.WRITE_CLEAN, "read", ALONE): CacheState.WRITE_CLEAN,
    (CacheState.WRITE_CLEAN, "write", ALONE): CacheState.WRITE_DIRTY,
    (CacheState.WRITE_CLEAN, "lock", ALONE): CacheState.LOCK,
    (CacheState.WRITE_DIRTY, "read", ALONE): CacheState.WRITE_DIRTY,
    (CacheState.WRITE_DIRTY, "write", ALONE): CacheState.WRITE_DIRTY,
    (CacheState.WRITE_DIRTY, "lock", ALONE): CacheState.LOCK,
    (CacheState.LOCK, "read", ALONE): CacheState.LOCK,
    (CacheState.LOCK, "write", ALONE): CacheState.LOCK,
    (CacheState.LOCK, "unlock", ALONE): CacheState.WRITE_DIRTY,  # Figure 8
    (CacheState.LOCK_WAITER, "read", ALONE): CacheState.LOCK_WAITER,
    (CacheState.LOCK_WAITER, "write", ALONE): CacheState.LOCK_WAITER,
    (CacheState.LOCK_WAITER, "unlock", ALONE): CacheState.WRITE_DIRTY,  # + bcast
}

#: (start state, snooped bus request) -> end state.
EXPECTED_BUS_ARCS: dict[tuple[CacheState, str], CacheState] = {
    (CacheState.READ, "read"): CacheState.READ,
    (CacheState.READ, "read-excl"): CacheState.INVALID,
    (CacheState.READ, "read-lock"): CacheState.INVALID,
    (CacheState.READ, "upgrade"): CacheState.INVALID,
    (CacheState.READ_SOURCE_CLEAN, "read"): CacheState.READ,  # source moves
    (CacheState.READ_SOURCE_CLEAN, "read-excl"): CacheState.INVALID,
    (CacheState.READ_SOURCE_CLEAN, "read-lock"): CacheState.INVALID,
    (CacheState.READ_SOURCE_CLEAN, "upgrade"): CacheState.INVALID,
    (CacheState.READ_SOURCE_DIRTY, "read"): CacheState.READ,
    (CacheState.READ_SOURCE_DIRTY, "read-excl"): CacheState.INVALID,
    (CacheState.READ_SOURCE_DIRTY, "read-lock"): CacheState.INVALID,
    (CacheState.WRITE_CLEAN, "read"): CacheState.READ,
    (CacheState.WRITE_CLEAN, "read-excl"): CacheState.INVALID,
    (CacheState.WRITE_CLEAN, "read-lock"): CacheState.INVALID,
    (CacheState.WRITE_DIRTY, "read"): CacheState.READ,
    (CacheState.WRITE_DIRTY, "read-excl"): CacheState.INVALID,
    (CacheState.WRITE_DIRTY, "read-lock"): CacheState.INVALID,
    (CacheState.LOCK, "read"): CacheState.LOCK_WAITER,  # Figure 7
    (CacheState.LOCK, "read-excl"): CacheState.LOCK_WAITER,
    (CacheState.LOCK, "read-lock"): CacheState.LOCK_WAITER,
    (CacheState.LOCK_WAITER, "read"): CacheState.LOCK_WAITER,
    (CacheState.LOCK_WAITER, "read-excl"): CacheState.LOCK_WAITER,
    (CacheState.LOCK_WAITER, "read-lock"): CacheState.LOCK_WAITER,
}


@dataclass(frozen=True)
class Arc:
    start: CacheState
    stimulus: str
    environment: str
    end: CacheState | str


def _force_state(sys: ManualSystem, state: CacheState) -> None:
    """Bring cache0's line for BLOCK to ``state`` by scripted ops."""
    if state is CacheState.INVALID:
        return
    if state is CacheState.WRITE_CLEAN:
        sys.run_op(0, isa.read(BLOCK))  # Figure 1: alone -> write privilege
    elif state is CacheState.WRITE_DIRTY:
        sys.run_op(0, isa.write(BLOCK))
    elif state is CacheState.LOCK:
        sys.run_op(0, isa.lock(BLOCK))
    elif state is CacheState.LOCK_WAITER:
        sys.run_op(0, isa.lock(BLOCK))
        # Another cache requests it and is refused (Figure 7).
        sys.submit(1, isa.lock(BLOCK))
        sys.drain()
    elif state is CacheState.READ:
        # Become source, then let cache1 fetch: cache1 takes source status
        # and cache0 keeps a plain read copy (Feature 8 LRU).
        sys.run_op(0, isa.read(BLOCK))  # WRITE_CLEAN
        sys.run_op(1, isa.read(BLOCK))  # cache1 becomes RSC; cache0 -> READ
    elif state is CacheState.READ_SOURCE_CLEAN:
        sys.run_op(1, isa.read(BLOCK))  # cache1 alone -> WRITE_CLEAN
        sys.run_op(0, isa.read(BLOCK))  # cache0 fetches: RSC, cache1 -> READ
    elif state is CacheState.READ_SOURCE_DIRTY:
        sys.run_op(1, isa.write(BLOCK))  # cache1 dirty
        sys.run_op(0, isa.read(BLOCK))  # cache0: READ_SOURCE_DIRTY
    else:
        raise ProgramError(f"no recipe for state {state}")
    actual = sys.line_state(0, BLOCK)
    if actual is not state:
        raise ProgramError(f"recipe for {state} produced {actual}")


_PROC_OPS = {
    "read": isa.read,
    "write": isa.write,
    "lock": isa.lock,
    "unlock": isa.unlock,
}

_BUS_STIMULI = {
    # Ops cache1 performs to put the given request on the bus (cache1 must
    # not hold the block so its op generates a fetch).
    "read": isa.read,
    "read-excl": isa.write,
    "read-lock": isa.lock,
}


def enumerate_processor_arcs(protocol: str = "bitar-despain") -> list[Arc]:
    """Observe every (state, processor-request) transition of the protocol.

    The resulting state is recorded at the instant the operation completes
    (or is refused), before any further bus activity."""
    from repro.cache.cache import AccessStatus

    arcs: list[Arc] = []
    for (state, request, env) in sorted(
        EXPECTED_PROCESSOR_ARCS, key=lambda k: (k[0].value, k[1], k[2])
    ):
        sys = ManualSystem(protocol=protocol, n_caches=3)
        if env == SHARED and state is CacheState.INVALID:
            sys.run_op(1, isa.read(BLOCK))
        elif env == DIRTY_ELSEWHERE:
            sys.run_op(1, isa.write(BLOCK))
        elif env == LOCKED_ELSEWHERE:
            sys.run_op(1, isa.lock(BLOCK))
        _force_state(sys, state)
        op = _PROC_OPS[request](BLOCK)
        status = sys.submit(0, op)
        end: CacheState | str
        if status is AccessStatus.DONE:
            end = sys.line_state(0, BLOCK)
        else:
            end = _pump_until_settled(sys, cache_idx=0)
        arcs.append(Arc(state, request, env, end))
    return arcs


def _pump_until_settled(sys: ManualSystem, cache_idx: int,
                        max_cycles: int = 500) -> CacheState | str:
    """Pump the bus until the pending op completes or settles into a lock
    wait; return the resulting state (or the "wait" marker)."""
    cache = sys.caches[cache_idx]
    for _ in range(max_cycles):
        sys.step()
        if cache.take_completion() is not None:
            return sys.line_state(cache_idx, BLOCK)
        if cache.waiting_for_lock and not sys.bus.busy and not any(
            c.has_bus_request() for c in sys.caches
        ):
            return "wait"
    raise ProgramError("stimulus did not settle")


def enumerate_bus_arcs(protocol: str = "bitar-despain") -> list[Arc]:
    """Observe every (state, snooped-bus-request) transition."""
    arcs: list[Arc] = []
    for (state, request) in sorted(
        EXPECTED_BUS_ARCS, key=lambda k: (k[0].value, k[1])
    ):
        sys = ManualSystem(protocol=protocol, n_caches=4)
        if request == "upgrade":
            # The upgrader must hold a read copy without disturbing
            # cache0's target state: make cache3 a reader first, then
            # bring cache0 to the start state (cache0's own fetch restores
            # its source-ness last), then have cache3 write.
            sys.run_op(3, isa.read(BLOCK))
            _force_state(sys, state)
            if sys.line_state(0, BLOCK) is not state:
                raise ProgramError(f"setup for ({state}, upgrade) failed")
            sys.submit(3, isa.write(BLOCK))
            sys.drain()
            sys.caches[3].take_completion()
        else:
            _force_state(sys, state)
            op = _BUS_STIMULI[request](BLOCK)
            sys.submit(2, op)
            sys.drain()
            sys.caches[2].take_completion()
        arcs.append(Arc(state, request, "", sys.line_state(0, BLOCK)))
    return arcs


def verify_figure10(protocol: str = "bitar-despain") -> list[str]:
    """Return the list of mismatches between the implementation's arcs and
    the figure's; empty means the diagram is reproduced exactly."""
    problems: list[str] = []
    for arc in enumerate_processor_arcs(protocol):
        expected = EXPECTED_PROCESSOR_ARCS[(arc.start, arc.stimulus, arc.environment)]
        if arc.end != expected:
            problems.append(
                f"processor arc {arc.start.value} --{arc.stimulus}/"
                f"{arc.environment}--> {arc.end} (expected {expected})"
            )
    for arc in enumerate_bus_arcs(protocol):
        expected = EXPECTED_BUS_ARCS[(arc.start, arc.stimulus)]
        if arc.end is not expected:
            problems.append(
                f"bus arc {arc.start.value} --{arc.stimulus}--> "
                f"{arc.end} (expected {expected.value})"
            )
    return problems


def render_figure10() -> str:
    from repro.analysis.report import render_table

    proc_rows = [
        [a.start.value, a.stimulus, a.environment,
         a.end if isinstance(a.end, str) else a.end.value]
        for a in enumerate_processor_arcs()
    ]
    bus_rows = [
        [a.start.value, a.stimulus, a.end.value]
        for a in enumerate_bus_arcs()
    ]
    top = render_table(
        ["state", "processor request", "others hold", "next state"],
        proc_rows, title="Figure 10 (processor-induced transitions)",
    )
    bottom = render_table(
        ["state", "bus request", "next state"],
        bus_rows, title="Figure 10 (bus-induced transitions)",
    )
    return top + "\n\n" + bottom
