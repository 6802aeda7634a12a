"""Synchronization library: cache-state locks and software queues.

Test-and-set and test-and-test-and-set spinlocks are built by lowering
cache-state lock ops (:func:`repro.processor.program.lower_locks`).
"""

from repro.sync.cache_lock import CacheLock
from repro.sync.queue import SoftwareQueue

__all__ = [
    "CacheLock",
    "SoftwareQueue",
]
