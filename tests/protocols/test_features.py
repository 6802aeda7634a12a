"""The protocol feature descriptors must match the paper's Table 1."""

import pytest

from repro.cache.state import CacheState
from repro.protocols import (
    PROTOCOL_NAMES,
    PROTOCOLS,
    TABLE1_PROTOCOLS,
    WRITE_UPDATE_PROTOCOLS,
    get_protocol,
    register_protocol,
    unregister_protocol,
)
from repro.common.errors import UnknownProtocolError
from repro.protocols.features import TABLE1_STATE_ROWS


class TestRegistry:
    def test_ten_protocols(self):
        assert len(PROTOCOLS) == 10

    def test_table1_order(self):
        assert TABLE1_PROTOCOLS == (
            "goodman", "synapse", "illinois", "yen", "berkeley",
            "bitar-despain",
        )

    def test_lookup(self):
        assert get_protocol("goodman").name == "goodman"

    def test_unknown_protocol(self):
        with pytest.raises(UnknownProtocolError):
            get_protocol("mesi-2000")

    def test_names_match_keys(self):
        for name, cls in PROTOCOLS.items():
            assert cls.name == name

    def test_every_name_loads_its_class(self):
        for name in PROTOCOL_NAMES:
            cls = get_protocol(name)
            assert cls.name == name
            assert PROTOCOLS[name] is cls

    def test_all_ten_in_registry_order(self):
        order = ("write-through", "goodman", "synapse", "illinois", "yen",
                 "berkeley", "bitar-despain", "dragon", "firefly",
                 "rudolph-segall")
        assert PROTOCOL_NAMES == order
        assert tuple(PROTOCOLS) == order

    def test_unknown_protocol_lists_all_ten(self):
        with pytest.raises(UnknownProtocolError) as info:
            get_protocol("mesi-2000")
        message = info.value.args[0]
        assert "'mesi-2000'" in message
        assert message.endswith(", ".join(sorted(PROTOCOL_NAMES)))

    def test_register_and_unregister_an_extension(self):
        class Extension(PROTOCOLS["illinois"]):
            name = "illinois-extension"

        register_protocol(Extension)
        try:
            assert get_protocol("illinois-extension") is Extension
            assert "illinois-extension" not in PROTOCOLS
        finally:
            unregister_protocol("illinois-extension")
        with pytest.raises(UnknownProtocolError):
            get_protocol("illinois-extension")

    def test_reproduced_names_cannot_be_taken(self):
        with pytest.raises(ValueError):
            register_protocol(PROTOCOLS["illinois"])
        with pytest.raises(ValueError):
            unregister_protocol("illinois")


class TestStateCounts:
    """Number of states per protocol, per the paper's Section F.2."""

    @pytest.mark.parametrize("protocol, n_states", [
        ("write-through", 2),  # invalid, read
        ("goodman", 4),  # invalid, valid, reserved, dirty
        ("synapse", 3),  # invalid, valid, dirty
        ("illinois", 4),
        ("yen", 4),
        ("berkeley", 5),  # + dirty-read
        ("bitar-despain", 8),  # Section E.1
        ("rudolph-segall", 3),
    ])
    def test_state_count(self, protocol, n_states):
        assert len(get_protocol(protocol).states()) == n_states


class TestSourceRoles:
    def test_goodman_only_dirty_is_source(self):
        f = get_protocol("goodman").features()
        assert f.state_role(CacheState.WRITE_DIRTY) == "S"
        assert f.state_role(CacheState.WRITE_CLEAN) == "N"
        assert f.state_role(CacheState.READ) == "N"

    def test_illinois_read_is_source(self):
        f = get_protocol("illinois").features()
        assert f.state_role(CacheState.READ) == "S"

    def test_yen_write_clean_non_source(self):
        f = get_protocol("yen").features()
        assert f.state_role(CacheState.WRITE_CLEAN) == "N"

    def test_katz_write_clean_source(self):
        f = get_protocol("berkeley").features()
        assert f.state_role(CacheState.WRITE_CLEAN) == "S"

    def test_proposal_all_valid_states_carry_source_or_not(self):
        f = get_protocol("bitar-despain").features()
        for state in TABLE1_STATE_ROWS:
            assert f.uses_state(state)
        assert f.state_role(CacheState.LOCK) == "S"
        assert f.state_role(CacheState.LOCK_WAITER) == "S"
        assert f.state_role(CacheState.READ) == "N"


class TestFeatureFlags:
    def test_distributed_state(self):
        assert get_protocol("synapse").features().distributed_state == "RWD"
        assert get_protocol("bitar-despain").features().distributed_state == "RWLDS"

    def test_only_goodman_and_classic_lack_invalidate_signal(self):
        without = [n for n, c in PROTOCOLS.items()
                   if not c.features().bus_invalidate_signal]
        assert set(without) == {"write-through", "goodman", "dragon", "firefly"}

    def test_only_proposal_has_lock_state(self):
        with_lock = [n for n, c in PROTOCOLS.items() if c.supports_lock_state()]
        assert with_lock == ["bitar-despain"]

    def test_only_proposal_has_busy_wait_and_write_no_fetch(self):
        for name, cls in PROTOCOLS.items():
            f = cls.features()
            expected = name == "bitar-despain"
            assert f.efficient_busy_wait is expected, name
            assert f.write_without_fetch is expected, name

    def test_write_update_family(self):
        assert set(WRITE_UPDATE_PROTOCOLS) == {
            "dragon", "firefly", "rudolph-segall",
        }
