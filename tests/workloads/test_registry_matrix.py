"""Registry-wide build matrix and naming reconciliation.

Every registered workload (scenario-built entries included) must build
for every protocol at small and large processor counts, produce one
program per processor, and lower cleanly under both spinlock styles.
The naming tests pin the contract between the Python API's underscore
exports and the registry's hyphenated keys so the two namespaces cannot
drift apart again.
"""

import pytest

import repro.workloads as workloads
from repro.common.errors import LockStyleIgnoredWarning
from repro.processor.program import LockStyle
from repro.workloads.registry import (
    STYLE_BLIND_WORKLOADS,
    WORKLOADS,
    build_workload,
    canonical_workload_name,
    default_lock_style,
    effective_lock_style,
)
from tests.conftest import ALL_PROTOCOLS, config_for

PROTOCOL_NAMES = [p for p, _, _ in ALL_PROTOCOLS]


class TestBuildMatrix:
    @pytest.mark.parametrize("n", [4, 16])
    @pytest.mark.parametrize("protocol", PROTOCOL_NAMES)
    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_every_workload_builds_everywhere(self, name, protocol, n):
        config = config_for(protocol, n=n)
        styles = ([None] if name in STYLE_BLIND_WORKLOADS
                  else [LockStyle.CACHE_LOCK, LockStyle.TTAS])
        for style in styles:
            programs = build_workload(name, config, style)
            assert len(programs) == n, \
                f"{name} on {protocol} at n={n}: not pid-complete"
            assert any(len(p.ops) for p in programs), \
                f"{name} on {protocol} at n={n}: empty workload"
            for program in programs:
                program.validate()


class TestNaming:
    def test_scenario_keys_match_the_library(self):
        # The registry spells the scenario names out so registering them
        # does not load the DSL; they must track the library.
        from repro.scenario.library import SCENARIOS

        keys = sorted(key.removeprefix("scenario:") for key in WORKLOADS
                      if key.startswith("scenario:"))
        assert keys == sorted(SCENARIOS)

    def test_registry_keys_are_canonical(self):
        for key in WORKLOADS:
            assert canonical_workload_name(key) == key

    def test_underscore_spellings_resolve(self):
        for key in WORKLOADS:
            assert canonical_workload_name(key.replace("-", "_")) == key

    def test_api_exports_cover_registry(self):
        # Every non-scenario registry entry is reachable from the
        # package __all__ under its underscore spelling (possibly via a
        # differently-named generator documented in the registry table).
        exported = set(workloads.__all__)
        missing = []
        for key in WORKLOADS:
            if ":" in key:
                continue
            if key.replace("-", "_") not in exported:
                missing.append(key)
        # These registry names intentionally map to generators with
        # different importable names; the canonicalizer covers them.
        renamed = {"sharing", "smith", "prolog"}
        assert set(missing) <= renamed, \
            f"registry keys with no API export: {missing}"

    def test_unknown_name_lists_valid_names(self):
        with pytest.raises(KeyError) as excinfo:
            canonical_workload_name("bogus")
        message = str(excinfo.value)
        for key in WORKLOADS:
            assert key in message


class TestLockStyleHandling:
    def test_style_blind_warns_on_explicit_style(self):
        config = config_for("bitar-despain", n=2)
        with pytest.warns(LockStyleIgnoredWarning):
            build_workload("sharing", config, LockStyle.TTAS)

    def test_style_blind_silent_by_default(self, recwarn):
        config = config_for("bitar-despain", n=2)
        build_workload("sharing", config, None)
        assert not [w for w in recwarn.list
                    if issubclass(w.category, LockStyleIgnoredWarning)]

    def test_effective_style_is_none_for_style_blind(self):
        for name in STYLE_BLIND_WORKLOADS:
            assert effective_lock_style(name, "bitar-despain",
                                        LockStyle.TTAS) is None

    def test_effective_style_defaults_per_protocol(self):
        assert (effective_lock_style("lock-contention", "bitar-despain")
                == default_lock_style("bitar-despain"))
        assert (effective_lock_style("lock-contention", "goodman",
                                     LockStyle.TAS) == LockStyle.TAS)
