"""Runtime-agnostic metrics recording: counters, lock profiles, spans.

A :class:`Recorder` is the one observer of a run, on every runtime: the
simulated engine and the real runtimes' ``drive`` loop call a handful of
*structured* hooks (``on_charge``, ``on_acquire``, ...) with whatever
clock they have — simulated seconds on
:class:`~repro.runtime.sim.SimRuntime`, wall-clock seconds everywhere
else — and the recorder maintains:

* per-lock acquisition counts, contention counts, wait/hold totals and
  log-scale histograms (:class:`LockStats`) — the Figure 4 evidence,
  now measurable on real threads and processes;
* a per-``Work``-label split (:class:`WorkStats`) — the Figure 3
  "where does the time go" decomposition (charged seconds on the
  simulator, instruction budgets on real runtimes where charges are
  free);
* per-process effect-kind counts (:meth:`Recorder.summary`);
* a bounded list of structured :class:`Span` events feeding the JSONL
  and Chrome-trace exporters (:mod:`repro.obs.export`).

Recorders are *mergeable*: each worker records into its own
:meth:`~Recorder.child` (no cross-thread contention perturbing the
measurement), and the parent folds each child's picklable
:meth:`~Recorder.snapshot` with :meth:`~Recorder.merge` afterwards —
the one protocol by which measurements cross a thread join or the fork
boundary of :class:`~repro.runtime.procs.ProcRuntime`.  What the cells
are and how each folds is :mod:`repro.obs.store`.
"""

from __future__ import annotations

import threading
import time as _time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from functools import cache
from typing import NamedTuple

from ..core.protocol import ALLOC_LOCK, FIRST_LNVC_LOCK, GLOBAL_LOCK
from .causal import CausalTracer
from .store import Histogram, Log, add_counts, log2_us_bucket
from .timeline import Timeline

__all__ = ["LockStats", "WorkStats", "Span", "Recorder", "lock_name"]


@cache  # a table filled on first sight: the hooks look a name up
def lock_name(lock_id: int) -> str:
    """Human name for a lock index (layout of :mod:`repro.core.protocol`)."""
    if lock_id == GLOBAL_LOCK:
        return "global"
    if lock_id == ALLOC_LOCK:
        return "alloc"
    return f"lnvc{lock_id - FIRST_LNVC_LOCK}"


@dataclass
class LockStats:
    """Everything recorded about one lock."""

    #: Explicit ``Acquire`` effects granted.
    acquires: int = 0
    #: Lock re-entries on the way out of a ``WaitOn`` sleep (not Acquires).
    reacquires: int = 0
    #: Grants that had to wait because the lock was held.
    contended: int = 0
    #: Total seconds grantees spent waiting for this lock.
    wait_seconds: float = 0.0
    #: Longest single wait.
    max_wait: float = 0.0
    #: Total seconds the lock was held (release time − grant time).
    hold_seconds: float = 0.0
    wait_hist: Histogram = field(default_factory=Histogram)
    hold_hist: Histogram = field(default_factory=Histogram)

    def fold(self, other: "LockStats") -> None:
        self.acquires += other.acquires
        self.reacquires += other.reacquires
        self.contended += other.contended
        self.wait_seconds += other.wait_seconds
        self.max_wait = max(self.max_wait, other.max_wait)
        self.hold_seconds += other.hold_seconds
        self.wait_hist.fold(other.wait_hist)
        self.hold_hist.fold(other.hold_hist)


@dataclass
class WorkStats:
    """Accumulated ``Charge`` activity for one work label."""

    count: int = 0
    instrs: int = 0
    flops: int = 0
    #: Priced simulated seconds; stays 0.0 on real runtimes (charges are
    #: free there — real time passes on its own).
    seconds: float = 0.0

    def fold(self, other: "WorkStats") -> None:
        self.count += other.count
        self.instrs += other.instrs
        self.flops += other.flops
        self.seconds += other.seconds


class Span(NamedTuple):
    """One structured event, timestamped at its *end*.

    ``kind`` is one of ``charge``, ``acquire``, ``release``,
    ``chan-wait``, ``wake``; ``duration`` is the span length in seconds
    (charge time, lock wait, lock hold, channel sleep; 0 for wakes).
    """

    time: float
    process: str
    kind: str
    name: str
    duration: float = 0.0
    value: int = 0


class Recorder:
    """Portable observability hooks; pass to any runtime.

    ``limit`` bounds the structured span list: counters keep counting,
    span recording stops, and :attr:`dropped_spans` counts what was not
    stored so truncated traces are never silently read as complete.
    ``clock`` names the timebase (``"sim"`` or ``"wall"``) and
    :attr:`now` reads it; :meth:`attach` sets both at the start of a run.
    ``causal=True`` additionally attaches a
    :class:`~repro.obs.causal.CausalTracer`, which hears one lifecycle
    event per message send/receive/free from the message sites (see
    *the observer seam* below): a stride sample of at most
    :data:`~repro.obs.causal.DEFAULT_LIMIT` events plus an exact e2e
    latency sketch.  For another bound pass a built tracer,
    ``causal=CausalTracer(limit=N)``.
    ``timeline=True`` (or a pre-built
    :class:`~repro.obs.timeline.Timeline`) additionally slices the run
    into fixed-width time windows of counters, gauges and quantile
    digests — the time axis the post-hoc aggregates lack;
    ``timeline_width`` sets the window width in seconds (see
    docs/telemetry.md).
    """

    def __init__(self, limit: int = 100_000, causal=False,
                 timeline=False, timeline_width: float = 0.05) -> None:
        self.clock = "wall"
        t0 = _time.perf_counter()
        #: Zero-argument "now" in the timebase :attr:`clock` names — the
        #: one clock every stamp of a run is read from.  A runtime hands
        #: its own to :meth:`attach`; until then (and for blocking
        #: clients, which have no run) it is wall seconds since this
        #: recorder was built, and :meth:`child` recorders inherit it, so
        #: a tree of recorders shares one time axis.
        self.now = lambda: _time.perf_counter() - t0
        #: The stored spans, a :class:`~repro.obs.store.Log`: the first
        #: ``limit`` are kept, and ``total == len(spans) + dropped_spans``
        #: always holds.
        self.spans: Log = Log(limit)
        self.locks: dict[int, LockStats] = {}
        self.work: dict[str, WorkStats] = {}
        #: Effect-kind counts per process; each hook bumps its own kind.
        self.kinds: dict[str, Counter] = defaultdict(Counter)
        self.chan_waits: Counter = Counter()
        self.chan_wait_seconds: float = 0.0
        #: Simulated-engine counters (events, event-queue pushes and
        #: pops) accumulated by SimRuntime after each run.
        self.machine: dict[str, int] = {}
        self._merge_mutex = threading.Lock()
        #: Optional :class:`~repro.obs.causal.CausalTracer`.
        self.causal = None
        #: Optional :class:`~repro.obs.timeline.Timeline`.
        self.timeline = None
        if causal:
            self.causal = causal if isinstance(causal, CausalTracer) \
                else CausalTracer()
        if timeline:
            self.timeline = timeline if isinstance(timeline, Timeline) \
                else Timeline(width=timeline_width)

    @property
    def limit(self) -> int:
        return self.spans.limit

    @property
    def total(self) -> int:
        """Spans seen, including those past ``limit``."""
        return self.spans.total

    @property
    def dropped_spans(self) -> int:
        """Spans not stored because ``limit`` was reached."""
        return self.spans.dropped

    # -- the observer seam ------------------------------------------------------
    #
    # A recorder carrying a tracer or a timeline is the view's ``probe``:
    # the message sites of repro.core test that one slot and make at most
    # one call below per observation instant, and the recorder decides
    # which of its sinks hear it — as on_acquire / on_chan_wait do for
    # the lock and channel effects.  Plain calls, never effects: an
    # attached probe cannot change a simulated schedule.

    def attach(self, view, clock=None, kind: str = "wall") -> None:
        """Observe ``view`` on ``clock`` (a zero-argument callable in the
        ``kind`` timebase; ``None`` keeps this recorder's own wall clock).

        The one place a run is wired for observation: tags the timebase,
        sets :attr:`now`, and — when there is a tracer or a timeline to
        hear them — makes this recorder the view's probe.
        """
        self.clock = kind
        if clock is not None:
            self.now = clock
        if self.timeline is not None:
            self.timeline.clock_kind = kind
        if self.causal is not None or self.timeline is not None:
            view.probe = self

    def circuit_opened(self, slot: int, name: str) -> None:
        """``open_send`` / ``open_receive`` resolved ``name`` to ``slot``."""
        if self.timeline is not None:
            self.timeline.name_slot(slot, name)

    def pool(self, popped=(), dry: int | None = None,
             live_blocks: int | None = None) -> None:
        """One allocation attempt: ``popped`` lists ``(head_off, n)`` for
        each pool ``n`` records were popped from, ``dry`` is the head
        offset of the pool that ran out (the pops before it stand in the
        counts although the caller returns them), ``live_blocks`` the
        block-pool level a complete allocation left."""
        if self.causal is not None:
            self.causal.on_pool(popped, dry)
        if self.timeline is not None:
            if live_blocks is not None:
                self.timeline.tap_pool(self.now(), live_blocks)
            elif dry is not None:
                self.timeline.count(self.now(), "pool|dry")

    def msg_sent(self, pid: int, slot: int, gen: int, seqno: int,
                 length: int, blocks: int, depth: int,
                 t0: float, t1: float, t2: float,
                 occupancy: int | None = None) -> None:
        """A message became visible on its circuit at queue depth
        ``depth``; ``t0..t2`` are the sender's entry / allocated (ring:
        claimed) / filled stamps, ``occupancy`` a ring's slots in use."""
        t = self.now()
        if self.causal is not None:
            self.causal.on_send(pid, slot, gen, seqno, length, blocks, depth,
                                t0, t1, t2, t)
        tl = self.timeline
        if tl is not None:
            tl.tap_send(t, slot, length, depth)
            if occupancy is not None:
                tl.tap_ring(t, slot, occupancy)

    def msg_received(self, pid: int, slot: int, gen: int, seqno: int,
                     length: int, fcfs: int,
                     t0: float, t1: float, t2: float,
                     occupancy: int | None = None) -> None:
        """A receive completed (pin dropped); ``t0..t2`` are the
        receiver's entry / claimed / copied-out stamps."""
        t = self.now()
        tl = self.timeline
        if self.causal is not None:
            e2e = self.causal.on_recv(pid, slot, gen, seqno, length, fcfs,
                                      t0, t1, t2, t)
            if e2e is not None and tl is not None:
                tl.tap_e2e(t2, slot, e2e)
        if tl is not None:
            tl.tap_recv(t, slot, length)
            if occupancy is not None:
                tl.tap_ring(t, slot, occupancy)

    def queue_depth(self, slot: int, depth: int) -> None:
        """Messages were unlinked from ``slot``'s FIFO, leaving ``depth``."""
        if self.timeline is not None:
            self.timeline.tap_depth(self.now(), slot, depth)

    def msgs_freed(self, slot: int, gen: int, depth: int, msgs,
                   discard: int = 0) -> None:
        """Unlinked headers are returning to the free list.  ``msgs`` is
        ``(sender, seqno, length)`` per message in FIFO order, ``depth``
        the queue depth after the last; ``discard`` marks circuit
        deletion rather than a reap."""
        if self.causal is not None:
            t = self.now()
            depth += len(msgs)
            for sender, seqno, length in msgs:
                depth -= 1
                self.causal.on_free(sender, slot, gen, seqno, length, depth,
                                    t, discard)

    def gauge(self, series: str, value: float) -> None:
        """An application-level sample (:meth:`repro.runtime.base.Env.gauge`)."""
        if self.timeline is not None:
            self.timeline.gauge(self.now(), series, value)

    # -- hooks called by runtimes ---------------------------------------------
    #
    # Every hook ends by offering its span to the log, and builds the
    # Span only if the log has room for it.

    def on_charge(self, time: float, process: str, label: str,
                  seconds: float, instrs: int = 0, flops: int = 0) -> None:
        """A ``Charge`` effect was priced (sim) or skipped for free (real)."""
        self.kinds[process]["Charge"] += 1
        label = label or "(unlabeled)"
        ws = self.work.get(label)
        if ws is None:
            ws = self.work[label] = WorkStats()
        ws.count += 1
        ws.instrs += instrs
        ws.flops += flops
        ws.seconds += seconds
        if self.spans.admit():
            self.spans.append(
                Span(time, process, "charge", label, seconds, instrs))

    def on_acquire(self, time: float, process: str, lock_id: int,
                   wait_seconds: float, contended: bool,
                   counted: bool = True) -> None:
        """A lock was granted after ``wait_seconds`` of waiting.

        ``counted=False`` marks the implicit reacquisition on the way out
        of a ``WaitOn`` sleep: its wait time is real contention evidence,
        but it is not an ``Acquire`` effect, so it is kept out of the
        acquisition counts.
        """
        ls = self.locks.get(lock_id)
        if ls is None:
            ls = self.locks[lock_id] = LockStats()
        if counted:
            self.kinds[process]["Acquire"] += 1
            ls.acquires += 1
        else:
            ls.reacquires += 1
        if contended:
            ls.contended += 1
        ls.wait_seconds += wait_seconds
        if wait_seconds > ls.max_wait:
            ls.max_wait = wait_seconds
        bucket = log2_us_bucket(wait_seconds)
        ls.wait_hist.add_bucket(bucket)
        name = lock_name(lock_id)
        if self.timeline is not None and counted:
            self.timeline.tap_lock(time, name, bucket, contended)
        if self.spans.admit():
            self.spans.append(
                Span(time, process, "acquire", name, wait_seconds, lock_id))

    def on_release(self, time: float, process: str, lock_id: int,
                   hold_seconds: float, counted: bool = True) -> None:
        """A lock was released after being held ``hold_seconds``.

        ``counted=False`` marks the implicit release performed by a
        ``WaitOn`` (the effect protocol releases the circuit lock on the
        caller's behalf before sleeping).
        """
        ls = self.locks.get(lock_id)
        if ls is None:
            ls = self.locks[lock_id] = LockStats()
        if counted:
            self.kinds[process]["Release"] += 1
        ls.hold_seconds += hold_seconds
        ls.hold_hist.add_bucket(log2_us_bucket(hold_seconds))
        if self.spans.admit():
            self.spans.append(Span(time, process, "release",
                                   lock_name(lock_id), hold_seconds, lock_id))

    def on_chan_wait(self, time: float, process: str, chan: int,
                     wait_seconds: float) -> None:
        """A ``WaitOn`` sleep on channel ``chan`` ended after ``wait_seconds``."""
        self.kinds[process]["WaitOn"] += 1
        self.chan_waits[chan] += 1
        self.chan_wait_seconds += wait_seconds
        if self.timeline is not None:
            self.timeline.tap_chan(time, chan, wait_seconds)
        if self.spans.admit():
            self.spans.append(Span(time, process, "chan-wait", f"chan{chan}",
                                   wait_seconds, chan))

    def on_wake(self, time: float, process: str, chan: int, woken: int) -> None:
        """A ``Wake`` on channel ``chan`` roused ``woken`` sleepers."""
        self.kinds[process]["Wake"] += 1
        if self.spans.admit():
            self.spans.append(
                Span(time, process, "wake", f"chan{chan}", 0.0, woken))

    # -- tables ------------------------------------------------------------------

    def summary(self) -> dict[str, Counter]:
        """Per-process effect-kind counts."""
        return {p: Counter(c) for p, c in self.kinds.items()}

    def lock_profile(self) -> Counter:
        """Explicit acquisitions per lock id (the Figure 4 evidence)."""
        return Counter({lid: ls.acquires for lid, ls in self.locks.items()
                        if ls.acquires})

    def charge_breakdown(self) -> Counter:
        """Instruction budget per work label, across all processes: the
        "where does the time go" view — copy labels dominate at large
        messages, fixed labels at small ones (the Figure 3 analysis)."""
        return Counter({label: ws.instrs for label, ws in self.work.items()
                        if ws.instrs})

    # -- aggregates -------------------------------------------------------------

    def lock_table(self) -> dict[int, LockStats]:
        """Per-lock statistics, keyed by lock id, sorted."""
        return {lid: self.locks[lid] for lid in sorted(self.locks)}

    def circuit_lock_stats(self) -> LockStats:
        """All per-LNVC circuit locks folded into one :class:`LockStats`.

        This is the Figure 4 headline number: the per-circuit locks are
        where FCFS receivers and the sender collide.
        """
        agg = LockStats()
        for lid, ls in self.locks.items():
            if lid >= FIRST_LNVC_LOCK:
                agg.fold(ls)
        return agg

    # -- merge across workers / processes ---------------------------------------

    def _adopt(self, causal, timeline) -> None:
        """Grow an empty tracer / timeline shaped like the given one
        wherever this recorder has none (and there is one to follow)."""
        if causal is not None and self.causal is None:
            self.causal = CausalTracer(limit=causal.limit)
        if timeline is not None and self.timeline is None:
            self.timeline = Timeline(width=timeline.width)
            self.timeline.clock_kind = timeline.clock_kind

    def child(self) -> "Recorder":
        """A fresh recorder for one worker; merge its snapshot when done.

        The child reads this recorder's clock and carries empty sinks of
        the same shape (a tracer with the same bound, a timeline of the
        same width), so whatever a worker observes rides home inside the
        child's snapshot.  Other workers may receive what this one sends,
        so the child's tracer keeps every send stamp it hears until the
        merge pairs them.
        """
        rec = Recorder(limit=self.limit)
        rec.clock = self.clock
        rec.now = self.now
        rec._adopt(self.causal, self.timeline)
        if rec.causal is not None:
            rec.causal._keep = True
        return rec

    def snapshot(self) -> dict:
        """Everything this recorder measured, as one picklable dict.

        The dict holds the recorder's own cells, logs and sinks, not
        copies: pickle it (as the procs pipe does) or :meth:`merge` it
        and let the recorder go.  :meth:`merge` copies what it folds, so
        no merged recorder ever shares state with a snapshot.
        """
        return {
            "clock": self.clock,
            "spans": self.spans,
            "locks": self.locks,
            "work": self.work,
            "kinds": self.kinds,
            "chan_waits": self.chan_waits,
            "chan_wait_seconds": self.chan_wait_seconds,
            "machine": self.machine,
            "causal": self.causal,
            "timeline": self.timeline,
        }

    def merge(self, snap: dict) -> None:
        """Fold a :meth:`snapshot` into this recorder (thread-safe).

        Whatever can refuse the snapshot is checked before the first
        fold, so a refused merge leaves this recorder as it was.  A
        recorder without a tracer or a timeline grows one like the
        snapshot's; one that has recorded nothing takes its clock.  The
        deliveries the tracer pairs across the two reach the timeline's
        e2e digests here, like those paired as they happened.
        """
        with self._merge_mutex:
            causal, timeline = snap["causal"], snap["timeline"]
            if timeline is not None and self.timeline is not None and abs(
                    timeline.width - self.timeline.width) > 1e-12:
                raise ValueError(
                    f"cannot merge timelines of width {timeline.width} "
                    f"into width {self.timeline.width}")
            if snap["clock"] != self.clock and self.total:
                raise ValueError(
                    f"cannot merge a snapshot on the {snap['clock']!r} "
                    f"clock into spans on the {self.clock!r} clock")
            self._adopt(causal, timeline)
            self.clock = snap["clock"]  # merged workers define the timebase
            if self.timeline is not None:
                self.timeline.clock_kind = self.clock
            self.spans.fold(snap["spans"])
            for lid, theirs in snap["locks"].items():
                ls = self.locks.get(lid)
                if ls is None:
                    ls = self.locks[lid] = LockStats()
                ls.fold(theirs)
            for label, theirs in snap["work"].items():
                ws = self.work.get(label)
                if ws is None:
                    ws = self.work[label] = WorkStats()
                ws.fold(theirs)
            for process, counts in snap["kinds"].items():
                add_counts(self.kinds[process], counts)
            add_counts(self.chan_waits, snap["chan_waits"])
            self.chan_wait_seconds += snap["chan_wait_seconds"]
            add_counts(self.machine, snap["machine"])
            if timeline is not None:
                self.timeline.fold(timeline)
            if causal is not None:
                late = self.causal.fold(causal)
                if self.timeline is not None:
                    for t2, slot, e2e in late:
                        self.timeline.tap_e2e(t2, slot, e2e)

    # -- exporters (implemented in repro.obs.export) -----------------------------

    def format_lock_profile(self) -> str:
        """Aligned text table of :meth:`lock_table` (see ``repro.obs.export``)."""
        from .export import format_lock_profile

        return format_lock_profile(self)

    def format_summary(self) -> str:
        """Aligned text table of the per-label work split."""
        from .export import format_summary

        return format_summary(self)

    def jsonl(self) -> str:
        """Spans as JSON lines."""
        from .export import to_jsonl

        return to_jsonl(self)

    def chrome_trace(self) -> dict:
        """Spans as a ``chrome://tracing`` / Perfetto ``traceEvents`` dict."""
        from .export import chrome_trace

        return chrome_trace(self)

    def write_jsonl(self, path: str) -> None:
        from .export import write_jsonl

        write_jsonl(self, path)

    def write_chrome_trace(self, path: str) -> None:
        from .export import write_chrome_trace

        write_chrome_trace(self, path)

    def prometheus(self) -> str:
        """Metrics (and causal aggregates, if traced) as Prometheus text."""
        from .export import prometheus_exposition

        return prometheus_exposition(self)
