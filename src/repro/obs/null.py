"""The disabled observability layer.

Every component defaults to :data:`NULL_OBS`, so an unobserved run loads
this module alone, not :mod:`repro.obs.core` and its registry and
sampler.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.sim.stats import SimStats


class NullObservability:
    """The disabled layer: ``active`` is False.

    Every hook call site is guarded by ``obs.active``, so the null object
    carries no hooks: an unguarded call fails loudly instead of silently
    doing nothing.  Shared across simulators, hence it refuses to be
    bound to a run.
    """

    active = False
    next_advance = 0

    def bind(self, stats: "SimStats") -> None:
        raise RuntimeError(
            "cannot bind the shared null observability; construct the "
            "simulator with obs=Observability(...)"
        )


#: Module-level null object used whenever observability is disabled.
NULL_OBS = NullObservability()
