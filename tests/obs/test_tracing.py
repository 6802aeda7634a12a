"""The traced tier's causal spans: span DAG shape, lock handoff chains, and
engine independence of the trace itself."""

from __future__ import annotations

import pytest

from repro import CacheConfig, SystemConfig
from repro.obs import SPAN_KINDS, Observability
from repro.processor.program import LockStyle
from repro.sim.engine import Simulator
from repro.workloads import lock_contention


def _traced_run(protocol: str = "bitar-despain", *, n: int = 4,
                fast_forward: bool = False,
                style: LockStyle | None = None):
    config = SystemConfig(
        num_processors=n,
        protocol=protocol,
        strict_verify=True,
        cache=CacheConfig(words_per_block=4, num_blocks=64),
    )
    if style is None:
        style = (LockStyle.CACHE_LOCK if protocol == "bitar-despain"
                 else LockStyle.TTAS)
    programs = lock_contention(config, lock_style=style,
                               rounds=5, think_cycles=9)
    obs = Observability(interval=50, tracing=True)
    sim = Simulator(config, programs, obs=obs, fast_forward=fast_forward)
    stats = sim.run()
    return obs, stats


@pytest.fixture(scope="module")
def traced():
    return _traced_run()


class TestSpanDag:
    def test_ids_are_dense_and_positional(self, traced):
        obs, _stats = traced
        spans = obs.result().spans
        assert spans, "a contended run must produce spans"
        assert [s["id"] for s in spans] == list(range(len(spans)))

    def test_links_point_strictly_backward(self, traced):
        obs, _stats = traced
        for span in obs.result().spans:
            for key in ("parent", "cause"):
                link = span.get(key)
                if link is not None:
                    assert 0 <= link < span["id"]

    def test_kinds_and_durations(self, traced):
        obs, _stats = traced
        for span in obs.result().spans:
            assert span["kind"] in SPAN_KINDS
            assert span["dur"] >= 0
            assert span["start"] >= 0

    def test_lifecycle_kinds_present(self, traced):
        obs, _stats = traced
        kinds = {s["kind"] for s in obs.result().spans}
        # A contended-lock run exercises the full lifecycle: bus
        # transactions, request episodes, lock waits, and lock holds.
        assert {"txn", "episode", "wait", "hold"} <= kinds


class TestLockCausality:
    def test_handoff_chain_orders_every_acquisition(self, traced):
        obs, stats = traced
        chains = obs.handoffs
        assert chains, "contended run must record lock handoffs"
        acquired = sum(len(chain) for chain in chains.values())
        assert acquired == stats.lock_acquisitions
        for chain in chains.values():
            cycles = [hop["acquired"] for hop in chain]
            assert cycles == sorted(cycles)

    def test_block_wait_cycles_accumulate(self, traced):
        obs, _stats = traced
        assert obs.block_waits
        assert all(cycles > 0 for cycles in obs.block_waits.values())

    def test_hold_spans_link_back_through_the_wait(self, traced):
        obs, _stats = traced
        spans = obs.result().spans
        holds = [s for s in spans if s["kind"] == "hold"]
        waits = [s for s in spans if s["kind"] == "wait"]
        assert holds and waits
        # The handoff chain is traceable end to end: a contended
        # acquisition's hold names the wait it ended (cause) and the
        # episode that completed the acquisition (parent).
        wait_ids = {s["id"] for s in waits}
        linked = [s for s in holds if s.get("cause") in wait_ids]
        assert linked, "no hold span is linked to a lock wait"
        assert any(s.get("parent") is not None for s in holds)


class TestEngineIndependence:
    @pytest.mark.parametrize("protocol,style", [
        ("bitar-despain", LockStyle.CACHE_LOCK),
        ("illinois", LockStyle.TTAS),
    ])
    def test_spans_identical_across_engines(self, protocol, style):
        spans = [_traced_run(protocol, style=style,
                             fast_forward=fast_forward)[0].result().spans
                 for fast_forward in (False, True)]
        assert spans[1] == spans[0], (
            f"{protocol}: spans diverge under fast-forward")


def _lock_spans(n: int, rounds: int, fast_forward: bool) -> tuple[int, int]:
    """(spans, lock acquisitions) of a traced bitar-despain run."""
    config = SystemConfig(num_processors=n, protocol="bitar-despain",
                          cache=CacheConfig(words_per_block=4, num_blocks=64))
    obs = Observability(tracing=True)
    stats = Simulator(config, lock_contention(config, rounds=rounds),
                      obs=obs, fast_forward=fast_forward).run()
    return len(obs.spans), stats.lock_acquisitions


class TestLockPassage:
    """Every unlock broadcast wakes all N-1 armed waiters, and all but
    the winner stand down (Section E.4, Figure 9).  The race is recorded
    on the transaction spans (``woken``, ``stood_down``), so the trace
    costs the same number of spans per lock passage at any N."""

    @pytest.mark.parametrize("fast_forward", [False, True],
                             ids=["stepped", "fast"])
    def test_spans_per_acquisition_do_not_grow_with_n(self, fast_forward):
        marginal = {}
        for n in (16, 32, 64):
            # The steady state: what one more round per processor adds.
            spans3, acquired3 = _lock_spans(n, 3, fast_forward)
            spans4, acquired4 = _lock_spans(n, 4, fast_forward)
            marginal[n] = (spans4 - spans3) / (acquired4 - acquired3)
        assert marginal[16] == marginal[32] == marginal[64], marginal

    def test_race_args_name_the_woken_and_the_losers(self, traced):
        obs, _stats = traced
        spans = obs.result().spans
        unlocks = [s for s in spans if s["name"] == "UNLOCK_BROADCAST"]
        assert unlocks and all("woken" in s["args"] for s in unlocks)
        races = [s for s in spans if "stood_down" in s["args"]]
        assert races, "a contended run must record lost races"
        for span in races:
            assert span["name"] == "READ_LOCK"
            losers = [pid for pid, _cycles in span["args"]["stood_down"]]
            assert span["args"]["requester"] not in losers
            assert len(set(losers)) == len(losers)


class TestValidatorRaceArgs:
    """``scripts/validate_trace.py`` checks the race args of a span trace."""

    @pytest.fixture(scope="class")
    def validate(self):
        import importlib.util
        from pathlib import Path

        path = (Path(__file__).resolve().parents[2] / "scripts"
                / "validate_trace.py")
        spec = importlib.util.spec_from_file_location("validate_trace", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module.validate_span_trace

    @pytest.fixture(scope="class")
    def payload(self, traced):
        import json

        from repro.obs.export import spans_json

        return json.loads(spans_json(traced[0]))

    def test_a_traced_lock_run_validates(self, validate, payload):
        assert validate(payload) == []

    def test_bad_losers_are_named(self, validate, payload):
        import copy

        bad = copy.deepcopy(payload)
        race = next(s for s in bad["spans"] if "stood_down" in s["args"])
        race["args"]["stood_down"].append([race["args"]["requester"], 1])
        race["args"]["stood_down"].append([99, 1])
        errors = validate(bad)
        assert any("own requester" in e for e in errors), errors
        assert any("99 is not a processor" in e for e in errors), errors
        unlock = next(s for s in bad["spans"] if "woken" in s["args"])
        race["args"]["woken"] = unlock["args"].pop("woken")
        assert any("not a UNLOCK_BROADCAST txn" in e
                   for e in validate(bad)), validate(bad)
