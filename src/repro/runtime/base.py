"""Runtime interface: the paper's "system dependent" boundary.

Paper §5: "the implementation is completely portable between shared
memory multiprocessors that provide locking and memory sharing between
concurrently executing processes."  A :class:`Runtime` is exactly that
pair of facilities — a shared region plus locks/conditions — together
with a way to run a set of processes.

User programs are *generator functions* receiving an :class:`Env`::

    def worker(env: Env):
        cid = yield from env.open_send("results")
        yield from env.message_send(cid, b"hello")
        yield from env.close_send(cid)

The generator style is what lets one program run unchanged on the
simulated Balance 21000 (where blocking must suspend a coroutine) and on
real threads or processes (where the trampoline simply drives the
generator to completion).  Real-runtime users who prefer ordinary
blocking calls can use :class:`repro.runtime.blocking.BlockingMPF`.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Callable, Generator, Sequence

from ..core import ops
from ..core.costmodel import Costs, DEFAULT_COSTS
from ..core.effects import charge
from ..core.inspect import traffic_totals
from ..core.layout import HDR, MPFConfig
from ..core.ops import MPFView
from ..core.protocol import Protocol
from ..core.work import Work

__all__ = ["Env", "Worker", "RunResult", "Runtime"]

#: A process body: a generator function taking its :class:`Env`.
Worker = Callable[["Env"], Generator]


class Env:
    """Per-process handle to MPF and the machine.

    Every MPF method is a *generator*; call it with ``yield from``.  The
    method set mirrors the paper's §2 interface one-to-one, with
    ``process_id`` bound to this environment's rank.
    """

    __slots__ = ("view", "rank", "nprocs", "_clock")

    def __init__(
        self,
        view: MPFView,
        rank: int,
        nprocs: int,
        clock: Callable[[], float],
    ) -> None:
        self.view = view
        #: This process's identifier (the paper's ``process_id``).
        self.rank = rank
        #: Number of processes in the program.
        self.nprocs = nprocs
        self._clock = clock

    # -- the eight MPF primitives (paper §2) ---------------------------------

    def open_send(self, name: str):
        """Open a send connection on the circuit ``name`` (creates it)."""
        return ops.open_send(self.view, self.rank, name)

    def open_receive(self, name: str, protocol: Protocol):
        """Open a receive connection with the FCFS or BROADCAST protocol."""
        return ops.open_receive(self.view, self.rank, name, protocol)

    def close_send(self, lnvc_id: int):
        """Close this process's send connection on the circuit."""
        return ops.close_send(self.view, self.rank, lnvc_id)

    def close_receive(self, lnvc_id: int):
        """Close this process's receive connection on the circuit."""
        return ops.close_receive(self.view, self.rank, lnvc_id)

    def message_send(self, lnvc_id: int, data: bytes, prelude: Work | None = None):
        """Asynchronously send ``data``; returns the message sequence number.

        ``prelude`` fuses compute-only application work with the send's
        entry charge (one scheduler event instead of two) — equivalent to
        ``yield from env.compute(...)`` immediately before the call.
        """
        return ops.message_send(self.view, self.rank, lnvc_id, data, prelude)

    def message_receive(self, lnvc_id: int, max_len: int | None = None):
        """Blocking receive; returns the payload bytes."""
        return ops.message_receive(self.view, self.rank, lnvc_id, max_len)

    def check_receive(self, lnvc_id: int, prelude: Work | None = None):
        """Count messages currently available to this process (advisory).

        ``prelude`` fuses compute-only application work with the check's
        entry charge, as in :meth:`message_send`.
        """
        return ops.check_receive(self.view, self.rank, lnvc_id, prelude)

    def poll_receive(self, lnvc_ids: Sequence[int], backoff: Work):
        """Poll circuits round after round; returns the first id with traffic.

        A helper over ``check_receive``'s cost stream, not a ninth
        primitive: ``backoff`` (compute-only work) precedes every round.
        See :func:`repro.core.ops.poll_receive`.
        """
        return ops.poll_receive(self.view, self.rank, lnvc_ids, backoff)

    # -- machine interaction ---------------------------------------------------

    def compute(self, *, flops: int = 0, instrs: int = 0):
        """Account for application compute between communications.

        On the simulated machine this advances the virtual clock (the
        Gauss–Jordan and SOR figures depend on it); on real runtimes it is
        free — real compute takes real time by itself.
        """
        yield charge(instrs, "app-compute", 0, 0, 0, flops)

    def now(self) -> float:
        """Current time: simulated seconds or wall-clock seconds."""
        return self._clock()

    def gauge(self, series: str, value: float) -> None:
        """Sample an application-level gauge onto the run's time axis.

        ``series`` is a ``"<series>|<metric>"`` key (the serve topology
        samples ``"tier:frontends|backlog"`` and friends).  A no-op —
        not even a clock read — unless the run is observed, so
        instrumented programs cost nothing to run unobserved.
        """
        probe = self.view.probe
        if probe is not None:
            probe.gauge(series, value)


@dataclass
class RunResult:
    """Outcome of one program run."""

    #: Map process name → generator return value.
    results: dict[str, object]
    #: Simulated seconds (sim runtime) or wall seconds (real runtimes).
    elapsed: float
    #: Which runtime produced this: ``"sim"``, ``"threads"`` or ``"procs"``.
    kind: str
    #: Final segment statistics (header counters).
    header: dict[str, int] = field(default_factory=dict)
    #: Machine counters; sim runtime only.
    report: object | None = None
    #: Real runtimes: per-worker synchronization counters
    #: (:data:`repro.runtime.sync.COUNTERS`), keyed by process name in
    #: rank order — how often locks were spun or slept for, how many
    #: waits parked, how many wakes found nobody to wake.
    sync: dict[str, dict[str, int]] = field(default_factory=dict)
    #: ``ProcRuntime.run(final_check=...)``: what the callable returned
    #: when handed the final view, before the segment was unlinked.
    final: object | None = None

    def result_list(self) -> list[object]:
        """Return values ordered by process rank (``p0``, ``p1``, ...)."""
        return [self.results[k] for k in sorted(self.results, key=_rank_key)]


def _rank_key(name: str) -> tuple[int, str]:
    digits = "".join(ch for ch in name if ch.isdigit())
    return (int(digits) if digits else 0, name)


def snapshot_header(view: MPFView) -> dict[str, int]:
    """Read every header counter (for :attr:`RunResult.header`).

    The ``total_*`` traffic counters include the circuits still open.
    """
    fields = list(HDR.u32) + list(HDR.u64)
    header = {f: HDR.get(view.region, f) for f in fields}
    header.update(traffic_totals(view))
    return header


class Runtime(abc.ABC):
    """A way to run MPF programs: shared memory + locks + processes."""

    #: Human-readable runtime kind.
    kind: str = "abstract"

    #: Optional :class:`repro.obs.Recorder` attached at construction
    #: (``SimRuntime(recorder=...)``, ``ThreadRuntime(recorder=...)``,
    #: ``ProcRuntime(recorder=...)``).  Runtimes feed it the same
    #: structured metrics — per-lock wait/hold, per-Work-label split —
    #: in whatever timebase they have: simulated seconds on the
    #: simulator, wall-clock seconds on real threads and processes.
    #: Recording is observational; ``None`` costs nothing.
    recorder = None

    @abc.abstractmethod
    def run(
        self,
        workers: Sequence[Worker],
        cfg: MPFConfig | None = None,
        costs: Costs = DEFAULT_COSTS,
        names: Sequence[str] | None = None,
    ) -> RunResult:
        """Run one worker process per element of ``workers``.

        ``cfg`` sizes the shared segment (defaults derive
        ``max_processes`` from ``len(workers)``).  ``names`` labels the
        processes; default ``p0 .. pN-1``.
        """

    @staticmethod
    def default_config(nprocs: int, cfg: MPFConfig | None) -> MPFConfig:
        """Fill in a config when the caller did not pass one."""
        if cfg is not None:
            return cfg
        return MPFConfig(max_lnvcs=max(32, 2 * nprocs), max_processes=max(2, nprocs))

    @staticmethod
    def process_names(n: int, names: Sequence[str] | None) -> list[str]:
        if names is None:
            return [f"p{i}" for i in range(n)]
        if len(names) != n:
            raise ValueError("names must match workers")
        if len(set(names)) != n:
            raise ValueError("process names must be unique")
        return list(names)
