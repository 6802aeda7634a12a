"""The protocol comparison runner."""

from repro.analysis.comparison import (
    ComparisonRow,
    compare_protocols,
    render_comparison,
)
from repro.processor.program import LockStyle
from repro.workloads import lock_contention


class TestCompare:
    def test_runs_field(self):
        rows = compare_protocols(
            ["illinois", "bitar-despain"],
            lambda cfg, style: lock_contention(cfg, rounds=2,
                                               lock_style=style),
            num_processors=2,
        )
        assert [r.protocol for r in rows] == ["illinois", "bitar-despain"]
        assert all(r.lock_acquisitions == 4 for r in rows)

    def test_rudolph_segall_gets_one_word_blocks(self):
        rows = compare_protocols(
            ["rudolph-segall"],
            lambda cfg, style: lock_contention(cfg, rounds=1,
                                               lock_style=style),
            num_processors=2,
        )
        assert rows[0].cycles > 0

    def test_default_style(self):
        # Locks are lowered with the registry's per-protocol default:
        # cache-lock on the proposal, TTAS elsewhere.
        seen = {}

        def make(config, style):
            seen[config.protocol] = style
            return lock_contention(config, lock_style=style, rounds=1)

        compare_protocols(["bitar-despain", "goodman"], make,
                          num_processors=2)
        assert seen == {"bitar-despain": LockStyle.CACHE_LOCK,
                        "goodman": LockStyle.TTAS}

    def test_render(self):
        rows = [ComparisonRow("x", 10, 5, 0.5, 0, 2, 0)]
        text = render_comparison(rows, title="T")
        assert "T" in text and "50%" in text
