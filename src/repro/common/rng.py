"""Deterministic random-number helpers.

Every stochastic component takes a seed and derives an independent
``random.Random`` stream, so a simulation is reproducible from its
:class:`~repro.common.config.SystemConfig` alone.
"""

from __future__ import annotations

import random


def derive_rng(seed: int, *path: object) -> random.Random:
    """Return an independent RNG stream for ``(seed, *path)``.

    The ``path`` components (e.g. ``("processor", 3)``) namespace the stream
    so that adding a consumer does not perturb unrelated streams.  The key
    is hashed with a *stable* hash: Python's built-in string ``hash`` is
    randomized per process, which would make "deterministic" workloads
    differ between runs.
    """
    # Imported here: ``hashlib`` loads the ``_hashlib`` extension, a few
    # milliseconds per interpreter that a run deriving no stream (the
    # lock workloads) need not pay.
    import hashlib

    key = "\x1f".join([str(seed)] + [str(p) for p in path]).encode()
    digest = hashlib.sha256(key).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def zipf_weights(n: int, skew: float) -> list[float]:
    """Return normalized Zipf(``skew``) weights over ``n`` items.

    Used by workload generators to produce skewed block popularity, the
    regime where sharing and lock contention actually occur.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    if skew < 0:
        raise ValueError("skew must be non-negative")
    raw = [1.0 / (i**skew) for i in range(1, n + 1)]
    total = sum(raw)
    return [w / total for w in raw]


def weighted_choice(rng: random.Random, items: list[int], weights: list[float]) -> int:
    """Pick one item according to ``weights`` (which need not be normalized)."""
    return rng.choices(items, weights=weights, k=1)[0]
