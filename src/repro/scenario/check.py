"""Bridge from declarative scenarios to the model checker.

:func:`mc_scenario` wraps a :class:`~repro.scenario.model.ScenarioSpec`
as a :class:`repro.mc.scenarios.Scenario`, so the PR-3 checking stack --
:func:`repro.mc.runner.run_schedule` with per-cycle invariants, the
strict write oracle, the deadlock watchdog, and seeded protocol
mutations -- drives compiled scenarios exactly like the hand-written
battery.  This is the oracle the scenario fuzzer feeds.
"""

from __future__ import annotations

from repro.common.config import CacheConfig, SystemConfig
from repro.mc.scenarios import Scenario
from repro.processor.program import LockStyle
from repro.scenario.compile import compile_scenario
from repro.scenario.model import ScenarioSpec
from repro.workloads.registry import (default_lock_style,
                                      default_strict_verify,
                                      default_words_per_block)

__all__ = ["mc_scenario", "checker_config"]


def checker_config(protocol: str, processors: int, *,
                   num_blocks: int = 16,
                   deadlock_horizon: int = 2_000) -> SystemConfig:
    """The model checker's system shape for a scenario run (mirrors the
    battery's defaults: paper block sizes, strict verification except
    classic write-through, a tight progress horizon)."""
    return SystemConfig(
        num_processors=processors,
        protocol=protocol,
        cache=CacheConfig(words_per_block=default_words_per_block(protocol),
                          num_blocks=num_blocks),
        strict_verify=default_strict_verify(protocol),
        deadlock_horizon=deadlock_horizon,
    )


def mc_scenario(
    spec: ScenarioSpec,
    *,
    processors: int = 3,
    num_blocks: int = 16,
    lock_style: LockStyle | None = None,
) -> Scenario:
    """Wrap ``spec`` for the model checker.

    ``build`` compiles the spec fresh per run (ops are mutated during
    simulation, so programs are never shared), lowering locks per
    protocol exactly as the battery does unless ``lock_style`` pins one.
    Declarative scenarios are never exhaustively enumerated -- their
    schedule spaces are workload-sized -- so ``exhaustive`` is False.
    """

    def build(protocol: str):
        config = checker_config(protocol, processors,
                                num_blocks=num_blocks)
        style = lock_style if lock_style is not None \
            else default_lock_style(protocol)
        return config, compile_scenario(spec, config, lock_style=style)

    return Scenario(
        name=spec.name,
        description=spec.description or "declarative scenario",
        build=build,
        expect=None,
        exhaustive=False,
    )
