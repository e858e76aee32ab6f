"""Shared memory on SHRIMP: the push-only layer of paper section 4.1.

Pre-established automatic-update mappings with PRAM consistency, plus
lock/barrier primitives that emit spin assembly against mapped flag
words.  These classes reproduce the paper's section 4.1 design; the
coherent, crash-tolerant fetch-on-fault layer is :mod:`repro.dsm`.

- :class:`SharedRegion` -- complementary automatic-update mappings
  giving two nodes a common address window.
- :class:`TokenLock` -- a request/grant token lock for two nodes,
  correct under PRAM consistency because of per-sender in-order
  delivery.
- :class:`ChainBarrier` -- an N-node chain barrier over mapped flag
  words, honouring the section 3.2 two-mappings-per-page limit.
"""

from repro.shmem.barrier import ChainBarrier
from repro.shmem.lock import TokenLock
from repro.shmem.region import SharedRegion

__all__ = [
    "SharedRegion",
    "TokenLock",
    "ChainBarrier",
]
