"""Blocking convenience facade for real runtimes.

The coroutine (``yield from``) API exists so one program can run on the
simulated machine; code that only targets real threads or processes can
use :class:`BlockingMPF`, whose methods are ordinary blocking calls — the
closest Python rendering of the paper's C interface (§2).

Typical use::

    system = MPFSystem(MPFConfig(max_lnvcs=8, max_processes=4))
    mpf = system.client(pid=0)          # one client per thread/process
    cid = mpf.open_send("results")
    mpf.message_send(cid, b"hello")
    mpf.close_send(cid)

A :class:`MPFSystem` owns the shared segment and the synchronization
objects; clients are cheap views bound to a process id.
"""

from __future__ import annotations

import threading

from ..core import ops
from ..core.costmodel import Costs, DEFAULT_COSTS
from ..core.layout import MPFConfig, SegmentLayout, format_region
from ..core.ops import MPFView
from ..core.protocol import Protocol
from ..core.region import SharedRegion
from .sync import ProcSync, SyncBase
from .threads import drive

__all__ = ["MPFSystem", "BlockingMPF"]


class MPFSystem:
    """A shared MPF segment plus real synchronization, for threads.

    This is the blocking-API analogue of the paper's ``init()``: it
    allocates and formats the shared memory and creates the locks.
    """

    def __init__(self, cfg: MPFConfig | None = None, costs: Costs = DEFAULT_COSTS) -> None:
        self.cfg = cfg or MPFConfig()
        region = SharedRegion(bytearray(SegmentLayout(self.cfg).total_size))
        layout = format_region(region, self.cfg)
        self.view = MPFView(region, layout, costs)
        self.sync = ProcSync(self.cfg, threading, self.cfg.max_processes)

    def client(self, pid: int, recorder=None) -> "BlockingMPF":
        """A blocking client bound to process id ``pid``.

        Each concurrent thread must use its own ``pid`` — process ids are
        the identity MPF uses for connections, exactly as in the paper.
        ``recorder`` (a :class:`repro.obs.Recorder`) makes every call of
        this client record wall-clock lock and work metrics.
        """
        if not 0 <= pid < self.cfg.max_processes:
            raise ValueError(f"pid {pid} outside [0, {self.cfg.max_processes})")
        return BlockingMPF(self.view, self.sync.bind(pid), pid,
                           recorder=recorder)


class BlockingMPF:
    """The eight MPF primitives as plain blocking calls."""

    __slots__ = ("view", "sync", "pid", "recorder", "process")

    def __init__(self, view: MPFView, sync: SyncBase, pid: int,
                 recorder=None, process: str | None = None) -> None:
        self.view = view
        self.sync = sync
        self.pid = pid
        #: Optional :class:`repro.obs.Recorder` (wall-clock metrics).
        self.recorder = recorder
        #: Process label used in recorded metrics; defaults to ``p<pid>``.
        self.process = process or f"p{pid}"
        if recorder is not None:
            # Wall seconds on the recorder's own clock.  One probe serves
            # the whole segment in this process; clients of one segment
            # should share a recorder (or children of one) — the last
            # attached wins otherwise.
            recorder.attach(view)

    def _drive(self, gen) -> object:
        return drive(gen, self.sync, recorder=self.recorder,
                     process=self.process)

    def open_send(self, name: str) -> int:
        """Open (creating if needed) a send connection; returns the circuit id."""
        return self._drive(ops.open_send(self.view, self.pid, name))

    def open_receive(self, name: str, protocol: Protocol) -> int:
        """Open a receive connection with the given protocol."""
        return self._drive(ops.open_receive(self.view, self.pid, name, protocol))

    def close_send(self, lnvc_id: int) -> None:
        """Close this process's send connection."""
        self._drive(ops.close_send(self.view, self.pid, lnvc_id))

    def close_receive(self, lnvc_id: int) -> None:
        """Close this process's receive connection."""
        self._drive(ops.close_receive(self.view, self.pid, lnvc_id))

    def message_send(self, lnvc_id: int, data: bytes) -> int:
        """Send asynchronously; returns the message sequence number."""
        return self._drive(ops.message_send(self.view, self.pid, lnvc_id, data))

    def message_receive(self, lnvc_id: int, max_len: int | None = None) -> bytes:
        """Blocking receive; returns the payload."""
        return self._drive(
            ops.message_receive(self.view, self.pid, lnvc_id, max_len)
        )

    def check_receive(self, lnvc_id: int) -> int:
        """Count messages currently available to this process."""
        return self._drive(ops.check_receive(self.view, self.pid, lnvc_id))
