"""The paper's §5 future-work systems, implemented.

    "One method to improve the performance of the MPF system is to
    restrict the generality of message communication and process
    interaction. ... For instance, to support synchronous message
    passing, copying of data from a sending buffer to a linked message
    buffer and then to the receiving buffer is unnecessary; direct data
    transfer is possible.  Furthermore, if only one-to-one communication
    is implemented, all locking associated with message handling is
    removed.  Studies of simplified message passing systems for shared
    memory multiprocessors are currently underway."

* :mod:`~repro.ext.sync_channel` — synchronous (rendezvous) channels
  with direct single-copy transfer,
* :mod:`~repro.ext.o2o` — one-to-one lock-free SPSC ring channels,
* :mod:`~repro.ext.shared_vars` — the shared-variable idioms that the
  ``study_paradigm`` comparison runs against message passing.

Distributed variables and the MPI-style communicator are layers over
the public API that no figure runs; they live in ``examples/``
(``dvars.py``, ``mini_mpi.py``) beside the scripts that use them.
"""

from .o2o import O2ORing
from .shared_vars import CounterBarrier, LockedAccumulator, SharedDoubles
from .sync_channel import SyncChannels

__all__ = [
    "SyncChannels",
    "O2ORing",
    "SharedDoubles",
    "LockedAccumulator",
    "CounterBarrier",
]
