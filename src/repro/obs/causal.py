"""Per-message causal tracing: lifecycle events and sojourn times.

The :class:`~repro.obs.recorder.Recorder` aggregates (per-lock waits,
per-``Work`` charges) answer "where did the run spend its time" but not
"where did *this message* spend its time".  The paper's analysis needs
the second question too: "for large messages ... message copying costs
dominate" is a per-message statement, and Figure 4's falling FCFS curve
is per-message queueing delay made visible.

A :class:`CausalTracer` records one :class:`MsgEvent` per lifecycle
transition of every message, keyed by the identity MPF already
maintains — the per-LNVC ``seq`` counter assigned under the circuit
lock in :func:`repro.core.ops.message_send` plus the circuit's
``(slot, generation)`` pair, so events from recycled slots never alias:

* ``send``  — one per :func:`message_send`, carrying four timestamps:
  primitive entry (``t0``), block allocation complete (``t1``), payload
  copy-in complete (``t2``), linked at the FIFO tail (``t3``), plus the
  queue depth the enqueue produced;
* ``recv``  — one per :func:`message_receive`: entry (``t0``), claim —
  the FCFS take or per-receiver BROADCAST visit (``t1``), copy-out
  complete (``t2``), retire/unpin done (``t3``);
* ``free``  — one when the message header returns to the free list,
  from FIFO-head reaping or circuit deletion (``discard=True``).

The tracer is a pure sink: the :class:`~repro.obs.recorder.Recorder`
that carries it hears the message sites (docs/observability.md,
"Attaching observers") and hands every hook its timestamps.  Nothing
here reads a clock or yields an effect, so attaching a tracer never
adds scheduler round-trips and provably cannot perturb simulated timing
(pinned by the fig3 byte-identity test).  Free-list pressure arrives
through :meth:`CausalTracer.on_pool`.

Everything here is derived from the event list: per-stage sojourn
latency quantiles (:func:`sojourn_stats`) and queue-depth timelines
(:func:`queue_depth_timeline`, cross-checkable against the circuit's
``hwm_nmsgs`` high-water mark).  Flow graphs live in
:mod:`repro.obs.flow`, the Prometheus exposition in
:mod:`repro.obs.export`; what is backing up is
:class:`repro.obs.health.HealthEngine`'s verdict over a timeline.
"""

from __future__ import annotations

from array import array
from operator import attrgetter
from typing import NamedTuple

from .store import Sample, add_counts

__all__ = [
    "MsgEvent",
    "CausalTracer",
    "StageStats",
    "sojourn_stats",
    "pair_deliveries",
    "queue_depth_timeline",
    "peak_depth",
    "busiest_lnvc",
    "format_sojourn",
    "format_causal_tail",
    "causal_async_events",
]

#: Default bound on a tracer's stored events (its stride sample).
DEFAULT_LIMIT = 200_000

#: Lifecycle stages derived from a matched (send, recv) event pair, in
#: causal order.  ``alloc``/``copy_in``/``link`` come from the send
#: timestamps, ``resident`` is time spent queued between the link and
#: the claim, ``copy_out`` is the receiver-side drain, ``e2e`` spans
#: send entry to copy-out completion.
STAGES = ("alloc", "copy_in", "link", "resident", "copy_out", "e2e")


class MsgEvent(NamedTuple):
    """One lifecycle transition of one message.

    ``(slot, gen, seqno)`` is the message's causal identity; the four
    timestamps are in the producing runtime's clock (simulated seconds
    on the simulator, wall seconds elsewhere).  Fields not meaningful
    for a kind stay at their defaults (``free`` events only use ``t0``).
    For ``free`` events ``pid`` is the original *sender* (the header's
    ``sender`` field) — the reaper's identity is incidental.
    """

    kind: str          # "send" | "recv" | "free"
    pid: int
    slot: int
    gen: int
    seqno: int
    length: int
    t0: float
    t1: float = 0.0
    t2: float = 0.0
    t3: float = 0.0
    blocks: int = 0    # send: blocks allocated for the payload chain
    depth: int = 0     # send: queue depth after enqueue; free: after unlink
    fcfs: int = 1      # recv: 1 = FCFS take, 0 = BROADCAST visit
    discard: int = 0   # free: 1 = dropped by circuit deletion, 0 = reaped

    @property
    def key(self) -> tuple[int, int, int]:
        return (self.slot, self.gen, self.seqno)

    @property
    def lnvc(self) -> tuple[int, int]:
        return (self.slot, self.gen)


class CausalTracer:
    """Collects :class:`MsgEvent` records plus free-list pressure counts.

    The carrying :class:`~repro.obs.recorder.Recorder` calls the ``on_*``
    hooks with timestamps in the run's timebase.  The stored events are
    a stride sample of at most ``limit`` keyed by seqno
    (:class:`~repro.obs.store.Sample`): every event until the bound is
    hit, then those of every ``stride``-th message.  A message's send,
    receives and free share its seqno, so sampled messages keep their
    complete lifecycle and every derived analysis works on the sample.
    :attr:`total` and :attr:`dropped` say what was not stored, and
    :attr:`stride` is surfaced by the summary tables.

    End-to-end latency is **not** sampled: an exact sketch, :attr:`e2e`,
    pairs every send with its receives as they happen (8 bytes per
    delivery), so e2e quantiles over a million-message run stay exact.
    A receive whose send another worker's tracer heard is paired when
    the two merge (:meth:`fold`).  Nor are the traffic counts
    (:attr:`msgs`, :attr:`nbytes`, read through :meth:`traffic`): the
    message counters and the flow graph stay whole past the bound.
    """

    __slots__ = ("events", "pool_allocs", "pool_failures", "e2e",
                 "msgs", "nbytes", "_pending", "_orphans", "_grace", "_keep")

    def __init__(self, limit: int = DEFAULT_LIMIT) -> None:
        if limit < 1:
            raise ValueError("limit must be >= 1")
        #: The stored events with their ``total`` / ``dropped`` books, a
        #: :class:`~repro.obs.store.Sample` keyed by seqno.
        self.events: Sample = Sample(limit, attrgetter("seqno"))
        #: Successful free-list pops, keyed by pool head offset.
        self.pool_allocs: dict[int, int] = {}
        #: Pops that found the pool exhausted (returned NIL).
        self.pool_failures: dict[int, int] = {}
        #: Exact e2e latency sketch, one float per delivery.
        self.e2e = array("d")
        #: Exact messages and payload bytes per ``(kind, pid, slot,
        #: gen)``, ``kind`` ``"send"`` or ``"recv"``: counted before the
        #: sample decides whether the event is stored.
        self.msgs: dict[tuple, int] = {}
        self.nbytes: dict[tuple, int] = {}
        self._pending: dict = {}   # key -> send t0
        self._orphans: dict = {}   # key -> [recv t2], matched on merge
        self._grace: dict = {}     # recently freed key -> t0 (see on_free)
        #: Set on a :meth:`Recorder.child
        #: <repro.obs.recorder.Recorder.child>`'s tracer: keep every send
        #: stamp, freed or not, for the merge to pair (see on_free).
        self._keep = False

    @property
    def limit(self) -> int:
        return self.events.limit

    @property
    def stride(self) -> int:
        """Sampling stride: 1 = every message stored."""
        return self.events.stride

    @property
    def total(self) -> int:
        """Events seen, stored or not."""
        return self.events.total

    @property
    def dropped(self) -> int:
        """Events seen and not stored."""
        return self.events.dropped

    # -- hooks called by the carrying Recorder ------------------------------
    #
    # Each hook first asks the stride sample whether its event will be
    # stored, and builds the MsgEvent only then.

    def on_send(self, pid: int, slot: int, gen: int, seqno: int,
                length: int, blocks: int, depth: int,
                t0: float, t1: float, t2: float, t3: float) -> None:
        """Message linked at the FIFO tail at ``t3``."""
        self._pending[(slot, gen, seqno)] = t0
        flow = ("send", pid, slot, gen)
        self.msgs[flow] = self.msgs.get(flow, 0) + 1
        self.nbytes[flow] = self.nbytes.get(flow, 0) + length
        if self.events.admit(seqno):
            self.events.append(MsgEvent(
                "send", pid, slot, gen, seqno, length, t0, t1, t2, t3,
                blocks=blocks, depth=depth))

    def on_recv(self, pid: int, slot: int, gen: int, seqno: int,
                length: int, fcfs: int, t0: float, t1: float,
                t2: float, t3: float) -> float | None:
        """Receive complete (busy pin dropped) at ``t3``.

        Returns the delivery's exact end-to-end latency when the sketch
        paired it with its send, else ``None`` — what the recorder feeds
        its timeline's per-circuit e2e digests.
        """
        flow = ("recv", pid, slot, gen)
        self.msgs[flow] = self.msgs.get(flow, 0) + 1
        self.nbytes[flow] = self.nbytes.get(flow, 0) + length
        e2e = None
        key = (slot, gen, seqno)
        s0 = self._pending.get(key)
        if s0 is None:
            s0 = self._grace.pop(key, None)
        if s0 is not None:
            e2e = t2 - s0 if t2 > s0 else 0.0
            self.e2e.append(e2e)
        elif len(self._orphans) < 65536:
            # Cross-process delivery (procs runtime): the send lives in
            # another child's tracer; matched at merge time.
            self._orphans.setdefault(key, []).append(t2)
        if self.events.admit(seqno):
            self.events.append(MsgEvent(
                "recv", pid, slot, gen, seqno, length, t0, t1, t2, t3,
                fcfs=1 if fcfs else 0))
        return e2e

    def on_free(self, sender: int, slot: int, gen: int, seqno: int,
                length: int, depth: int, t: float, discard: int = 0) -> None:
        """Message header returned to the free list at ``t``."""
        # A receive's completion section reaps the message it just
        # retired (``_reap_head``) *before* its own recv hook fires — so
        # a freed entry lingers briefly in a small grace buffer instead
        # of vanishing, keeping the e2e sketch complete.  A child tracer
        # keeps it outright: receives of it may be in other children.
        if not self._keep:
            t0 = self._pending.pop((slot, gen, seqno), None)
            if t0 is not None:
                g = self._grace
                g[(slot, gen, seqno)] = t0
                while len(g) > 256:
                    del g[next(iter(g))]
        if self.events.admit(seqno):
            self.events.append(MsgEvent(
                "free", sender, slot, gen, seqno, length, t,
                depth=depth, discard=1 if discard else 0))

    def on_pool(self, popped=(), dry: int | None = None) -> None:
        """One allocation attempt: ``n`` records popped per ``(head_off,
        n)`` of ``popped``; the pool at ``dry`` was found exhausted."""
        for head_off, n in popped:
            self.pool_allocs[head_off] = self.pool_allocs.get(head_off, 0) + n
        if dry is not None:
            self.pool_failures[dry] = self.pool_failures.get(dry, 0) + 1

    # -- simple queries ------------------------------------------------------

    def sends(self) -> list[MsgEvent]:
        return [e for e in self.events if e.kind == "send"]

    def recvs(self) -> list[MsgEvent]:
        return [e for e in self.events if e.kind == "recv"]

    def frees(self) -> list[MsgEvent]:
        return [e for e in self.events if e.kind == "free"]

    def traffic(self):
        """``(kind, pid, (slot, gen), messages, bytes)`` per sender or
        receiver of each circuit, exact whatever the sample stored."""
        for key, n in self.msgs.items():
            kind, pid, slot, gen = key
            yield kind, pid, (slot, gen), n, self.nbytes[key]

    def lnvc_keys(self) -> list[tuple[int, int]]:
        """Distinct ``(slot, gen)`` pairs seen, sorted."""
        return sorted({e.lnvc for e in self.events})

    def e2e_stats(self) -> "StageStats":
        """Quantiles over the exact e2e sketch."""
        return StageStats(list(self.e2e))

    # -- merge across workers / processes ------------------------------------

    def fold(self, other: "CausalTracer") -> list[tuple[float, int, float]]:
        """Fold another tracer in (called by :meth:`Recorder.merge
        <repro.obs.recorder.Recorder.merge>` on a snapshot's tracer).

        The sample, the pool and traffic counters and the sketch fold as
        their cells do; what only a tracer knows is how to pair
        deliveries whose send and receive different tracers heard:
        ``other``'s sends against our orphan receives and the reverse.
        BROADCAST sends stay pending, since later merges may hold more
        receives.  Returns the pairs made here as ``(t2, slot, e2e)`` for
        the recorder's timeline.
        """
        self.events.fold(other.events)
        add_counts(self.pool_allocs, other.pool_allocs)
        add_counts(self.pool_failures, other.pool_failures)
        add_counts(self.msgs, other.msgs)
        add_counts(self.nbytes, other.nbytes)
        late = []
        for sends in (other._pending, other._grace):
            for key, t0 in sends.items():
                for t2 in self._orphans.pop(key, ()):
                    late.append((t2, key[0], t2 - t0 if t2 > t0 else 0.0))
                self._pending[key] = t0
        for key, stamps in other._orphans.items():
            t0 = self._pending.get(key)
            for t2 in stamps:
                if t0 is not None:
                    late.append((t2, key[0], t2 - t0 if t2 > t0 else 0.0))
                elif len(self._orphans) < 65536:
                    self._orphans.setdefault(key, []).append(t2)
        self.e2e.extend(other.e2e)
        self.e2e.extend(e2e for _, _, e2e in late)
        return late


# ---------------------------------------------------------------------------
# derived analyses
# ---------------------------------------------------------------------------


class StageStats:
    """Quantiles over one latency sample set (nearest-rank method)."""

    __slots__ = ("samples",)

    def __init__(self, samples: list[float]) -> None:
        self.samples = sorted(samples)

    @property
    def count(self) -> int:
        return len(self.samples)

    @property
    def mean(self) -> float:
        return sum(self.samples) / len(self.samples) if self.samples else 0.0

    def quantile(self, q: float) -> float:
        """Nearest-rank quantile, ``q`` resolved to thousandths; 0.0 on
        an empty sample set."""
        if not self.samples:
            return 0.0
        rank = max(1, -(-round(q * 1000) * len(self.samples) // 1000))
        return self.samples[min(rank, len(self.samples)) - 1]

    @property
    def p50(self) -> float:
        return self.quantile(0.50)

    @property
    def p95(self) -> float:
        return self.quantile(0.95)

    @property
    def p99(self) -> float:
        return self.quantile(0.99)

    @property
    def p999(self) -> float:
        return self.quantile(0.999)


def pair_deliveries(tracer: CausalTracer) -> list[tuple[MsgEvent, MsgEvent]]:
    """Match each ``recv`` event with its ``send`` by message identity.

    BROADCAST messages are received once per receiver, so one send may
    appear in several pairs.  Receives whose send fell outside the event
    bound are dropped (they cannot be timed end-to-end).
    """
    sends = {e.key: e for e in tracer.events if e.kind == "send"}
    out = []
    for e in tracer.events:
        if e.kind == "recv":
            s = sends.get(e.key)
            if s is not None:
                out.append((s, e))
    return out


def sojourn_stats(
    tracer: CausalTracer,
) -> dict[tuple[int, int], dict[str, StageStats]]:
    """Per-LNVC per-stage latency quantiles (see :data:`STAGES`).

    Stage durations clamp at zero: on real runtimes the claim is
    timestamped by the *receiving* process, so tiny negative residencies
    from cross-thread clock skew are noise, not signal.
    """
    samples: dict[tuple[int, int], dict[str, list[float]]] = {}
    for s, r in pair_deliveries(tracer):
        per = samples.setdefault(s.lnvc, {st: [] for st in STAGES})
        per["alloc"].append(max(0.0, s.t1 - s.t0))
        per["copy_in"].append(max(0.0, s.t2 - s.t1))
        per["link"].append(max(0.0, s.t3 - s.t2))
        per["resident"].append(max(0.0, r.t1 - s.t3))
        per["copy_out"].append(max(0.0, r.t2 - r.t1))
        per["e2e"].append(max(0.0, r.t2 - s.t0))
    return {
        key: {st: StageStats(vals) for st, vals in per.items()}
        for key, per in samples.items()
    }


def queue_depth_timeline(
    tracer: CausalTracer, slot: int, gen: int
) -> list[tuple[float, int]]:
    """``(time, depth)`` steps for one circuit's message queue.

    Depth changes on enqueue (``send`` events, at ``t3``) and on unlink
    (``free`` events); both carry the post-transition depth read under
    the circuit lock, so the timeline is exact, not inferred.  Ties in
    time (common under the model checker's zero-cost timing) keep event
    order.
    """
    steps = [
        (e.t3 if e.kind == "send" else e.t0, i, e.depth)
        for i, e in enumerate(tracer.events)
        if e.kind in ("send", "free") and e.lnvc == (slot, gen)
    ]
    steps.sort()
    return [(t, depth) for t, _, depth in steps]


def peak_depth(tracer: CausalTracer, slot: int, gen: int) -> int:
    """Maximum queue depth observed on one circuit (0 if never traced)."""
    return max(
        (d for _, d in queue_depth_timeline(tracer, slot, gen)), default=0
    )


def busiest_lnvc(tracer: CausalTracer) -> tuple[int, int] | None:
    """The ``(slot, gen)`` with the most sends (``None`` if no sends).

    Benchmarks run control traffic (barriers) over the same segment as
    the measured circuit; the measured circuit is the busiest one.
    """
    counts: dict[tuple[int, int], int] = {}
    for kind, _, lnvc, n, _ in tracer.traffic():
        if kind == "send":
            counts[lnvc] = counts.get(lnvc, 0) + n
    if not counts:
        return None
    return min(counts, key=lambda k: (-counts[k], k))


# ---------------------------------------------------------------------------
# text / export surfaces
# ---------------------------------------------------------------------------


def _us(seconds: float) -> str:
    return f"{seconds * 1e6:.1f}"


def format_sojourn(tracer: CausalTracer) -> str:
    """Aligned per-LNVC table of per-stage p50s and end-to-end quantiles."""
    from .export import _table

    stats = sojourn_stats(tracer)
    if not stats:
        return "(no complete deliveries traced)"
    rows = [["lnvc", "deliv", "alloc-p50", "copyin-p50", "link-p50",
             "resid-p50", "copyout-p50", "e2e-p50", "e2e-p95", "e2e-p99"]]
    for key in sorted(stats):
        per = stats[key]
        rows.append([
            f"lnvc{key[0]}@g{key[1]}", str(per["e2e"].count),
            _us(per["alloc"].p50), _us(per["copy_in"].p50),
            _us(per["link"].p50), _us(per["resident"].p50),
            _us(per["copy_out"].p50), _us(per["e2e"].p50),
            _us(per["e2e"].p95), _us(per["e2e"].p99),
        ])
    lines = [_table(rows), "(latencies in µs)"]
    if tracer.stride > 1:
        lines.append(
            f"(~) bounded tracing: 1/{tracer.stride} stride sample "
            f"({len(tracer.events)} of {tracer.total} events stored); "
            f"per-stage quantiles cover the sample, e2e sketch stays "
            f"exact ({len(tracer.e2e)} deliveries)"
        )
    return "\n".join(lines)


def format_causal_tail(tracer: CausalTracer, n: int = 12) -> str:
    """The last ``n`` lifecycle events, one line each (debugging aid)."""
    lines = []
    for e in tracer.events[-n:]:
        ident = f"lnvc{e.slot}@g{e.gen}#msg{e.seqno}"
        if e.kind == "send":
            detail = f"{e.length}B in {e.blocks} blk(s), depth -> {e.depth}"
        elif e.kind == "recv":
            detail = f"{e.length}B, {'fcfs take' if e.fcfs else 'bcast visit'}"
        else:
            detail = ("discarded (circuit deleted)" if e.discard
                      else f"reaped, depth -> {e.depth}")
        who = f"p{e.pid}" + (" (sender)" if e.kind == "free" else "")
        lines.append(f"  {e.kind:<4} {ident:<18} {who:<12} {detail}")
    if tracer.dropped:
        lines.append(f"  ... ({tracer.dropped} events dropped by the "
                     f"1/{tracer.stride} stride sample)")
    return "\n".join(lines) if lines else "  (no causal events recorded)"


def causal_async_events(tracer: CausalTracer) -> list[dict]:
    """Chrome Trace Event Format *async* events for each traced message.

    Each message becomes one async track (``ph`` ``b``/``n``/``e`` with a
    shared ``id``): begin at send entry, instants at enqueue and each
    claim, end at the last observed lifecycle point.  Loaded alongside
    the Recorder's duration slices, Perfetto draws the message's whole
    journey as an arrow-spanning bar above the per-process tracks.
    """
    by_key: dict[tuple[int, int, int], list[MsgEvent]] = {}
    for e in tracer.events:
        by_key.setdefault(e.key, []).append(e)
    events: list[dict] = []
    for key in sorted(by_key):
        slot, gen, seqno = key
        name = f"msg lnvc{slot}#{seqno}"
        mid = f"{slot}.{gen}.{seqno}"
        evs = by_key[key]
        send = next((e for e in evs if e.kind == "send"), None)
        start = send.t0 if send is not None else min(e.t0 for e in evs)
        end = start
        common = {"pid": 0, "tid": 0, "cat": "msg", "id": mid, "name": name}
        events.append({**common, "ph": "b", "ts": round(start * 1e6, 3)})
        for e in evs:
            if e.kind == "send":
                events.append({
                    **common, "ph": "n", "ts": round(e.t3 * 1e6, 3),
                    "args": {"step": "enqueue", "depth": e.depth,
                             "bytes": e.length},
                })
                end = max(end, e.t3)
            elif e.kind == "recv":
                events.append({
                    **common, "ph": "n", "ts": round(e.t1 * 1e6, 3),
                    "args": {"step": "take" if e.fcfs else "visit",
                             "by": f"p{e.pid}"},
                })
                end = max(end, e.t3)
            else:
                events.append({
                    **common, "ph": "n", "ts": round(e.t0 * 1e6, 3),
                    "args": {"step": "discard" if e.discard else "free"},
                })
                end = max(end, e.t0)
        events.append({**common, "ph": "e", "ts": round(end * 1e6, 3)})
    return events
