"""Runtime-agnostic metrics recording: counters, lock profiles, spans.

The old :class:`~repro.machine.trace.Tracer` could only observe the
simulator, because only the simulated engine produces a full effect
stream.  A :class:`Recorder` is the portable counterpart: runtimes call
a handful of *structured* hooks (``on_charge``, ``on_acquire``, ...)
with whatever clock they have — simulated seconds on
:class:`~repro.runtime.sim.SimRuntime`, wall-clock seconds everywhere
else — and the recorder maintains:

* per-lock acquisition counts, contention counts, wait/hold totals and
  log-scale histograms (:class:`LockStats`) — the Figure 4 evidence,
  now measurable on real threads and processes;
* a per-``Work``-label split (:class:`WorkStats`) — the Figure 3
  "where does the time go" decomposition (charged seconds on the
  simulator, instruction budgets on real runtimes where charges are
  free);
* per-process effect-kind counts matching ``Tracer.summary()``;
* a bounded list of structured :class:`Span` events feeding the JSONL
  and Chrome-trace exporters (:mod:`repro.obs.export`).

Recorders are *mergeable*: each worker records into its own child
recorder (no cross-thread contention perturbing the measurement), and
the parent merges picklable :meth:`snapshot` dicts afterwards — which is
also how measurements cross the fork boundary of
:class:`~repro.runtime.procs.ProcRuntime`.
"""

from __future__ import annotations

import math
import threading
import time as _time
from collections import Counter
from dataclasses import dataclass, field

from ..core.protocol import ALLOC_LOCK, FIRST_LNVC_LOCK, GLOBAL_LOCK

__all__ = ["Histogram", "LockStats", "WorkStats", "Span", "Recorder",
           "lock_name", "log2_us_bucket"]


def lock_name(lock_id: int) -> str:
    """Human name for a lock index (layout of :mod:`repro.core.protocol`)."""
    if lock_id == GLOBAL_LOCK:
        return "global"
    if lock_id == ALLOC_LOCK:
        return "alloc"
    return f"lnvc{lock_id - FIRST_LNVC_LOCK}"


def log2_us_bucket(seconds: float) -> int:
    """Log₂ microsecond bucket of a duration: ``b`` covers
    ``(2**(b-1), 2**b]`` µs, bucket 0 everything at or below 1 µs."""
    us = seconds * 1e6
    return 0 if us <= 1.0 else int(math.ceil(math.log2(us)))


class Histogram:
    """Log₂-bucketed duration histogram (microsecond scale).

    Bucket ``b`` counts durations in ``(2**(b-1), 2**b]`` microseconds;
    bucket 0 collects everything at or below 1 µs.  Log buckets keep the
    histogram tiny while separating the decades that matter (an
    uncontended acquire, a contended wait, a descheduled process).
    """

    __slots__ = ("counts",)

    def __init__(self, counts: dict[int, int] | None = None) -> None:
        self.counts: dict[int, int] = dict(counts or {})

    def add(self, seconds: float) -> None:
        b = log2_us_bucket(seconds)
        self.counts[b] = self.counts.get(b, 0) + 1

    def merge(self, counts: dict[int, int]) -> None:
        for b, n in counts.items():
            self.counts[b] = self.counts.get(b, 0) + n

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def buckets(self) -> list[tuple[str, int]]:
        """Sorted ``(upper-bound label, count)`` pairs."""
        out = []
        for b in sorted(self.counts):
            us = 2 ** b
            label = f"≤{us}µs" if us < 1000 else f"≤{us / 1000:g}ms"
            out.append((label, self.counts[b]))
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Histogram({dict(sorted(self.counts.items()))})"


@dataclass
class LockStats:
    """Everything recorded about one lock."""

    #: Explicit ``Acquire`` effects granted (matches ``Tracer.lock_profile``).
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

    def as_dict(self) -> dict:
        return {
            "acquires": self.acquires,
            "reacquires": self.reacquires,
            "contended": self.contended,
            "wait_seconds": self.wait_seconds,
            "max_wait": self.max_wait,
            "hold_seconds": self.hold_seconds,
            "wait_hist": dict(self.wait_hist.counts),
            "hold_hist": dict(self.hold_hist.counts),
        }

    def merge(self, d: dict) -> None:
        self.acquires += d["acquires"]
        self.reacquires += d["reacquires"]
        self.contended += d["contended"]
        self.wait_seconds += d["wait_seconds"]
        self.max_wait = max(self.max_wait, d["max_wait"])
        self.hold_seconds += d["hold_seconds"]
        self.wait_hist.merge(d["wait_hist"])
        self.hold_hist.merge(d["hold_hist"])


@dataclass
class WorkStats:
    """Accumulated ``Charge`` activity for one work label."""

    count: int = 0
    instrs: int = 0
    flops: int = 0
    #: Priced simulated seconds; stays 0.0 on real runtimes (charges are
    #: free there — real time passes on its own).
    seconds: float = 0.0

    def as_dict(self) -> dict:
        return {"count": self.count, "instrs": self.instrs,
                "flops": self.flops, "seconds": self.seconds}

    def merge(self, d: dict) -> None:
        self.count += d["count"]
        self.instrs += d["instrs"]
        self.flops += d["flops"]
        self.seconds += d["seconds"]


@dataclass(frozen=True)
class Span:
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

    def as_dict(self) -> dict:
        return {"time": self.time, "process": self.process, "kind": self.kind,
                "name": self.name, "duration": self.duration, "value": self.value}


class Recorder:
    """Portable observability hooks; pass to any runtime.

    ``limit`` bounds the structured span list exactly as the Tracer's
    event limit does: counters keep counting, span recording stops, and
    :attr:`dropped_spans` counts what was not stored so truncated traces
    are never silently read as complete.
    ``clock`` names the timebase (``"sim"`` or ``"wall"``) and
    :attr:`now` reads it; :meth:`attach` sets both at the start of a run.
    ``causal=True`` additionally attaches a
    :class:`~repro.obs.causal.CausalTracer` (or pass a pre-built tracer
    instance), which hears one lifecycle event per message
    send/receive/free from the message sites (see *the observer seam*
    below).
    ``causal_max_events=N`` puts that tracer in bounded mode: stride
    sampling caps the stored events at ``N`` while an exact sketch keeps
    e2e latency quantiles precise — how million-message serve runs trace
    without unbounded memory (see docs/serving.md).
    ``timeline=True`` (or a pre-built
    :class:`~repro.obs.timeline.Timeline`) additionally slices the run
    into fixed-width time windows of counters, gauges and quantile
    digests — the time axis the post-hoc aggregates lack;
    ``timeline_width`` sets the window width in seconds (see
    docs/telemetry.md).
    """

    def __init__(self, limit: int = 100_000, causal=False,
                 causal_max_events: int | None = None,
                 timeline=False, timeline_width: float = 0.05) -> None:
        self.limit = limit
        self.clock = "wall"
        t0 = _time.perf_counter()
        #: Zero-argument "now" in the timebase :attr:`clock` names — the
        #: one clock every stamp of a run is read from.  A runtime hands
        #: its own to :meth:`attach`; until then (and for blocking
        #: clients, which have no run) it is wall seconds since this
        #: recorder was built, and :meth:`child` recorders inherit it, so
        #: a tree of recorders shares one time axis.
        self.now = lambda: _time.perf_counter() - t0
        self.spans: list[Span] = []
        #: Total spans seen, including those past ``limit``.
        self.total = 0
        #: Spans not stored because ``limit`` was reached; the invariant
        #: ``total == len(spans) + dropped_spans`` always holds.
        self.dropped_spans = 0
        self.locks: dict[int, LockStats] = {}
        self.work: dict[str, WorkStats] = {}
        self.kinds: dict[str, Counter] = {}
        self.chan_waits: Counter = Counter()
        self.chan_wait_seconds: float = 0.0
        #: Simulated-engine counters (events, event-queue pushes and
        #: pops) accumulated by SimRuntime after each run.
        self.machine: dict[str, int] = {}
        self._merge_mutex = threading.Lock()
        if causal:
            from .causal import CausalTracer

            self.causal = causal if isinstance(causal, CausalTracer) \
                else CausalTracer(max_events=causal_max_events)
        else:
            #: Optional :class:`~repro.obs.causal.CausalTracer`.
            self.causal = None
        if timeline:
            from .timeline import Timeline

            self.timeline = timeline if isinstance(timeline, Timeline) \
                else Timeline(width=timeline_width)
        else:
            #: Optional :class:`~repro.obs.timeline.Timeline`.
            self.timeline = None

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
        if live_blocks is not None and self.timeline is not None:
            self.timeline.tap_pool(self.now(), live_blocks)

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

    def _span(self, span: Span) -> None:
        self.total += 1
        if len(self.spans) < self.limit:
            self.spans.append(span)
        else:
            self.dropped_spans += 1

    def _count(self, process: str, kind: str) -> None:
        try:
            self.kinds[process][kind] += 1
        except KeyError:
            self.kinds[process] = Counter({kind: 1})

    def on_charge(self, time: float, process: str, label: str,
                  seconds: float, instrs: int = 0, flops: int = 0) -> None:
        """A ``Charge`` effect was priced (sim) or skipped for free (real)."""
        self._count(process, "Charge")
        label = label or "(unlabeled)"
        ws = self.work.get(label)
        if ws is None:
            ws = self.work[label] = WorkStats()
        ws.count += 1
        ws.instrs += instrs
        ws.flops += flops
        ws.seconds += seconds
        self._span(Span(time, process, "charge", label, seconds, instrs))

    def on_acquire(self, time: float, process: str, lock_id: int,
                   wait_seconds: float, contended: bool,
                   counted: bool = True) -> None:
        """A lock was granted after ``wait_seconds`` of waiting.

        ``counted=False`` marks the implicit reacquisition on the way out
        of a ``WaitOn`` sleep: its wait time is real contention evidence,
        but it is not an ``Acquire`` effect, so it must not disturb the
        Tracer-compatible acquisition counts.
        """
        ls = self.locks.get(lock_id)
        if ls is None:
            ls = self.locks[lock_id] = LockStats()
        if counted:
            self._count(process, "Acquire")
            ls.acquires += 1
        else:
            ls.reacquires += 1
        if contended:
            ls.contended += 1
        ls.wait_seconds += wait_seconds
        if wait_seconds > ls.max_wait:
            ls.max_wait = wait_seconds
        ls.wait_hist.add(wait_seconds)
        if self.timeline is not None and counted:
            self.timeline.tap_lock(time, lock_id, wait_seconds, contended)
        self._span(Span(time, process, "acquire", lock_name(lock_id),
                        wait_seconds, lock_id))

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
            self._count(process, "Release")
        ls.hold_seconds += hold_seconds
        ls.hold_hist.add(hold_seconds)
        self._span(Span(time, process, "release", lock_name(lock_id),
                        hold_seconds, lock_id))

    def on_chan_wait(self, time: float, process: str, chan: int,
                     wait_seconds: float) -> None:
        """A ``WaitOn`` sleep on channel ``chan`` ended after ``wait_seconds``."""
        self._count(process, "WaitOn")
        self.chan_waits[chan] += 1
        self.chan_wait_seconds += wait_seconds
        if self.timeline is not None:
            self.timeline.tap_chan(time, chan, wait_seconds)
        self._span(Span(time, process, "chan-wait", f"chan{chan}",
                        wait_seconds, chan))

    def on_wake(self, time: float, process: str, chan: int, woken: int) -> None:
        """A ``Wake`` on channel ``chan`` roused ``woken`` sleepers."""
        self._count(process, "Wake")
        self._span(Span(time, process, "wake", f"chan{chan}", 0.0, woken))

    # -- Tracer-compatible tables ----------------------------------------------

    def summary(self) -> dict[str, Counter]:
        """Per-process effect-kind counts (same shape as ``Tracer.summary``)."""
        return {p: Counter(c) for p, c in self.kinds.items()}

    def lock_profile(self) -> Counter:
        """Acquisitions per lock id (same shape as ``Tracer.lock_profile``)."""
        return Counter({lid: ls.acquires for lid, ls in self.locks.items()
                        if ls.acquires})

    def charge_breakdown(self) -> Counter:
        """Instruction budget per work label (``Tracer.charge_breakdown``)."""
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
                agg.merge(ls.as_dict())
        return agg

    # -- merge across workers / processes ---------------------------------------

    def child(self) -> "Recorder":
        """A fresh recorder for one worker; merge its snapshot when done.

        When this recorder carries a causal tracer the child gets its own
        fresh tracer (same limit), so per-worker causal events can ride
        home inside the child's picklable snapshot — how causal traces
        cross the :class:`~repro.runtime.procs.ProcRuntime` fork.
        """
        rec = Recorder(limit=self.limit)
        rec.clock = self.clock
        rec.now = self.now
        if self.causal is not None:
            from .causal import CausalTracer

            rec.causal = CausalTracer(limit=self.causal.limit,
                                      max_events=self.causal.max_events)
        if self.timeline is not None:
            rec.timeline = self.timeline.child()
        return rec

    def snapshot(self) -> dict:
        """Picklable plain-data form (crosses the fork boundary)."""
        return {
            "clock": self.clock,
            "total": self.total,
            "dropped_spans": self.dropped_spans,
            "spans": [s.as_dict() for s in self.spans],
            "locks": {lid: ls.as_dict() for lid, ls in self.locks.items()},
            "work": {label: ws.as_dict() for label, ws in self.work.items()},
            "kinds": {p: dict(c) for p, c in self.kinds.items()},
            "chan_waits": dict(self.chan_waits),
            "chan_wait_seconds": self.chan_wait_seconds,
            "machine": dict(self.machine),
            "causal": None if self.causal is None else self.causal.snapshot(),
            "timeline": None if self.timeline is None
            else self.timeline.snapshot(),
        }

    def merge(self, snap: dict) -> None:
        """Fold a :meth:`snapshot` into this recorder (thread-safe)."""
        with self._merge_mutex:
            self.clock = snap["clock"]  # merged workers define the timebase
            self.total += snap["total"]
            spans = snap["spans"]
            room = self.limit - len(self.spans)
            fitted = min(len(spans), room) if room > 0 else 0
            self.spans.extend(Span(**d) for d in spans[:fitted])
            self.dropped_spans += (
                snap.get("dropped_spans", 0) + (len(spans) - fitted)
            )
            for lid, d in snap["locks"].items():
                lid = int(lid)
                ls = self.locks.get(lid)
                if ls is None:
                    ls = self.locks[lid] = LockStats()
                ls.merge(d)
            for label, d in snap["work"].items():
                ws = self.work.get(label)
                if ws is None:
                    ws = self.work[label] = WorkStats()
                ws.merge(d)
            for p, c in snap["kinds"].items():
                if p in self.kinds:
                    self.kinds[p].update(c)
                else:
                    self.kinds[p] = Counter(c)
            self.chan_waits.update(snap["chan_waits"])
            self.chan_wait_seconds += snap["chan_wait_seconds"]
            for key, n in snap.get("machine", {}).items():
                self.machine[key] = self.machine.get(key, 0) + n
            tl_snap = snap.get("timeline")
            if tl_snap is not None:
                if self.timeline is None:
                    from .timeline import Timeline

                    self.timeline = Timeline(width=tl_snap["width"])
                    self.timeline.clock_kind = tl_snap.get(
                        "clock_kind", "wall")
                self.timeline.merge(tl_snap)
            causal_snap = snap.get("causal")
            if causal_snap is not None:
                if self.causal is None:
                    from .causal import CausalTracer

                    self.causal = CausalTracer(
                        limit=causal_snap.get("limit", 200_000),
                        max_events=causal_snap.get("max_events"))
                self.causal.merge(causal_snap)

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
        from .prom import prometheus_exposition

        return prometheus_exposition(self)
