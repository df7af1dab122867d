"""repro — reproduction of MPF (Malony, Reed & McGuire, ICPP 1987).

MPF is a portable message-passing facility for shared-memory
multiprocessors built around *logical, named virtual circuits* (LNVCs):
named conversations that processes join and leave freely, with FCFS
(exactly-one-consumer) and BROADCAST (everyone-sees-everything)
receivers.

Quick start (simulated Sequent Balance 21000)::

    from repro import SimRuntime, FCFS

    def producer(env):
        cid = yield from env.open_send("jobs")
        for i in range(4):
            yield from env.message_send(cid, f"job {i}".encode())
        yield from env.close_send(cid)

    def consumer(env):
        cid = yield from env.open_receive("jobs", FCFS)
        got = []
        for _ in range(2):
            got.append((yield from env.message_receive(cid)))
        yield from env.close_receive(cid)
        return got

    result = SimRuntime().run([producer, consumer, consumer])
    print(result.results, result.elapsed)

See README.md for the architecture and DESIGN.md for the mapping from the
paper to this code.
"""

from .core import (
    BROADCAST,
    FCFS,
    Costs,
    DEFAULT_COSTS,
    MPFConfig,
    MPFError,
    Protocol,
)
from .machine import BALANCE_21000, DeadlockError, MachineConfig
from .obs import Recorder
from .runtime import (
    BlockingMPF,
    Env,
    MPFSystem,
    PosixSegment,
    ProcRuntime,
    RunResult,
    SimRuntime,
    ThreadRuntime,
)
from . import patterns

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "FCFS",
    "BROADCAST",
    "Protocol",
    "MPFConfig",
    "MPFError",
    "Costs",
    "DEFAULT_COSTS",
    "MachineConfig",
    "BALANCE_21000",
    "DeadlockError",
    "Env",
    "RunResult",
    "SimRuntime",
    "ThreadRuntime",
    "ProcRuntime",
    "MPFSystem",
    "BlockingMPF",
    "PosixSegment",
    "Recorder",
    "patterns",
]
