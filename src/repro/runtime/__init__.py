"""Runtimes: the paper's "system dependent" part, three ways.

* :class:`~repro.runtime.sim.SimRuntime` — the simulated Balance 21000
  (all performance figures),
* :class:`~repro.runtime.threads.ThreadRuntime` — real OS threads
  (races and functional portability),
* :class:`~repro.runtime.procs.ProcRuntime` — forked Unix processes over
  POSIX shared memory (the paper's actual deployment shape),
* :class:`~repro.runtime.blocking.MPFSystem` — a plain blocking API for
  thread code not written in generator style,
* :mod:`~repro.runtime.sync` — the four synchronization methods
  (``acquire``/``release``/``wait``/``wake``) the real runtimes share.
"""

from .base import Env, RunResult, Runtime, Worker
from .blocking import BlockingMPF, MPFSystem
from .posix import PosixSegment
from .procs import ProcRuntime
from .sim import SimRuntime
from .threads import ThreadRuntime

__all__ = [
    "Env",
    "RunResult",
    "Runtime",
    "Worker",
    "SimRuntime",
    "ThreadRuntime",
    "ProcRuntime",
    "MPFSystem",
    "BlockingMPF",
    "PosixSegment",
]
