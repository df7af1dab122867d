"""Segment inspection: structured dumps of live MPF state.

A deployed MPF application (threads, forked processes, or independent
processes attached to a named segment) sometimes needs to answer "what
is in there right now?" — which conversations exist, who is connected,
how deep the queues are, how much of each pool is left.  This module
walks the shared structures read-only and reports.

Consistency caveat: the walk takes no locks (it must be usable from a
diagnostic process that does not participate in the protocol), so on a
*running* system the snapshot can be torn, exactly as a debugger's view
of the paper's C structures would be.  On a quiescent segment it is
exact; tests use it that way.

Every shared list — a circuit's FIFO, a BROADCAST backlog, the send and
receive descriptor lists — is walked by one bounded walker,
:func:`walk_list`, whichever reader asks: the dump here, the invariants
below and :func:`repro.check.deadlock.analyze_stall`.  None of them can
spin on a cyclic list a fault or a torn snapshot left behind.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import RegionFormatError
from .freelist import fl_count
from .layout import HDR
from .ops import MPFView, encode_lnvc_id
from .protocol import NIL, MsgFlags, Protocol
from .structs import (
    LNVC,
    MSG,
    RCUR,
    RECV,
    RING,
    RING_READERS,
    RSLOT,
    RSLOT_PENDING_OFF,
    RS_FCFS_AVAILABLE,
    RS_FCFS_TAKEN,
    RS_RETIRED,
    SEND,
)

__all__ = ["MessageInfo", "ConnectionInfo", "CircuitInfo", "SegmentInfo",
           "inspect_segment", "render_segment", "traffic_totals", "walk_list",
           "InvariantViolation", "collect_violations", "check_invariants"]


@dataclass(frozen=True)
class MessageInfo:
    """One queued message."""

    seqno: int
    length: int
    nblocks: int
    sender: int
    flags: MsgFlags
    bcast_pending: int


@dataclass(frozen=True)
class ConnectionInfo:
    """One send or receive connection."""

    pid: int
    kind: str               # "send" | "recv"
    protocol: Protocol | None  # receive connections only
    reads: int = 0
    #: Messages this BROADCAST receiver has not yet read (None for FCFS).
    backlog: int | None = None


@dataclass(frozen=True)
class CircuitInfo:
    """One live LNVC."""

    lnvc_id: int
    name: str
    n_senders: int
    n_fcfs: int
    n_bcast: int
    queued: int
    total_enqueued: int
    #: Deepest the FIFO has ever been (the Figure 6 memory-pressure signal).
    peak_queued: int
    messages: list[MessageInfo] = field(default_factory=list)
    connections: list[ConnectionInfo] = field(default_factory=list)
    #: Which transport carries this circuit's payloads.
    transport: str = "freelist"


@dataclass(frozen=True)
class SegmentInfo:
    """The whole segment."""

    circuits: list[CircuitInfo]
    live_msgs: int
    live_blocks: int
    live_bytes: int
    free_send: int
    free_recv: int
    free_msg: int
    free_blk: int
    total_sends: int
    total_receives: int

    def circuit(self, name: str) -> CircuitInfo:
        """The circuit called ``name`` (raises ``KeyError`` if absent)."""
        for c in self.circuits:
            if c.name == name:
                return c
        raise KeyError(name)


#: Each shared list: its record, link field and the config's pool size.
_LISTS = {
    "FIFO": (MSG, "next_msg", "max_messages"),
    "BROADCAST backlog": (MSG, "next_msg", "max_messages"),
    "send list": (SEND, "next", "n_send"),
    "recv list": (RECV, "next", "n_recv"),
}


def _walk(view: MPFView, kind: str, head: int) -> list[int]:
    """Record offsets along the ``kind`` list from ``head``, stopping
    after one more than its pool holds: a longer answer means a cycle or
    a link into another list, and the caller says what that means."""
    rec, link, pool = _LISTS[kind]
    cap = getattr(view.cfg, pool)
    r = view.region
    out: list[int] = []
    while head != NIL and len(out) <= cap:
        out.append(head)
        head = rec.get(r, head, link)
    return out


def walk_list(view: MPFView, slot: int, kind: str, head: int) -> list[int]:
    """The records of circuit ``slot``'s ``kind`` list from ``head``
    (``"FIFO"``, ``"BROADCAST backlog"``, ``"send list"`` or ``"recv
    list"``); raises :class:`RegionFormatError` naming both if the list
    is cyclic or overlong."""
    out = _walk(view, kind, head)
    if len(out) > getattr(view.cfg, _LISTS[kind][2]):
        raise RegionFormatError(f"lnvc slot {slot}: {kind} is cyclic or overlong")
    return out


def _walk_messages(view: MPFView, slot: int, base: int) -> list[MessageInfo]:
    r = view.region
    return [
        MessageInfo(
            seqno=MSG.get(r, msg, "seqno"),
            length=MSG.get(r, msg, "length"),
            nblocks=MSG.get(r, msg, "nblocks"),
            sender=MSG.get(r, msg, "sender"),
            flags=MsgFlags(MSG.get(r, msg, "flags")),
            bcast_pending=MSG.get(r, msg, "bcast_pending"),
        )
        for msg in walk_list(view, slot, "FIFO", LNVC.get(r, base, "fifo_head"))
    ]


def _ring_live_slots(view: MPFView, base: int) -> list[tuple[int, int]]:
    """Committed, unretired ``(index, slot_off)`` pairs of a ring circuit,
    oldest first."""
    r = view.region
    lay = view.layout
    nslots = view.cfg.ring_slots
    ring = LNVC.get(r, base, "ring")
    ridx = lay.ring_index(ring)
    w = RING.get(r, ring, "next_write")
    out = []
    for idx in range(w - nslots if w > nslots else 0, w):
        sl = lay.ring_slot_off(ridx, idx % nslots)
        if RSLOT.get(r, sl, "seq") != idx + 1:
            continue
        if RSLOT.get(r, sl, "state") & RS_RETIRED:
            continue
        out.append((idx, sl))
    return out


def _walk_ring_messages(view: MPFView, base: int) -> list[MessageInfo]:
    r = view.region
    out = []
    for _, sl in _ring_live_slots(view, base):
        st = RSLOT.get(r, sl, "state")
        flags = MsgFlags.NONE
        if st & RS_FCFS_AVAILABLE:
            flags |= MsgFlags.FCFS_EXPECTED
        if st & RS_FCFS_TAKEN:
            flags |= MsgFlags.FCFS_TAKEN
        out.append(
            MessageInfo(
                seqno=RSLOT.get(r, sl, "seqno"),
                length=RSLOT.get(r, sl, "length"),
                nblocks=0,
                sender=RSLOT.get(r, sl, "sender"),
                flags=flags,
                bcast_pending=r.u32(sl + RSLOT_PENDING_OFF).bit_count(),
            )
        )
    return out


def _walk_connections(view: MPFView, slot: int, base: int) -> list[ConnectionInfo]:
    r = view.region
    is_ring = bool(LNVC.get(r, base, "transport"))
    out = [
        ConnectionInfo(pid=SEND.get(r, desc, "pid"), kind="send", protocol=None)
        for desc in walk_list(view, slot, "send list",
                              LNVC.get(r, base, "send_list"))
    ]
    for desc in walk_list(view, slot, "recv list", LNVC.get(r, base, "recv_list")):
        proto = Protocol(RECV.get(r, desc, "proto"))
        backlog = None
        if proto is Protocol.BROADCAST:
            if is_ring:
                ring = LNVC.get(r, base, "ring")
                cur = view.layout.ring_cur_off(
                    view.layout.ring_index(ring), RECV.get(r, desc, "head")
                )
                backlog = RING.get(r, ring, "next_write") - RCUR.get(
                    r, cur, "next_seq"
                )
            else:
                backlog = len(walk_list(view, slot, "BROADCAST backlog",
                                        RECV.get(r, desc, "head")))
        out.append(
            ConnectionInfo(
                pid=RECV.get(r, desc, "pid"),
                kind="recv",
                protocol=proto,
                reads=RECV.get(r, desc, "nreads"),
                backlog=backlog,
            )
        )
    return out


def traffic_totals(view: MPFView) -> dict[str, int]:
    """The ``total_*`` traffic counters of the segment.

    Each circuit counts its own traffic under its own lock; the header
    words hold only what deleted circuits left behind
    (``ops._delete_lnvc``).  The totals are the two summed.
    """
    r = view.region
    totals = {f: HDR.get(r, f) for f in (
        "total_sends", "total_receives",
        "total_bytes_sent", "total_bytes_received")}
    for slot in range(view.cfg.max_lnvcs):
        base = view.layout.lnvc_off(slot)
        if LNVC.get(r, base, "in_use"):
            totals["total_sends"] += LNVC.get(r, base, "seq")
            totals["total_receives"] += LNVC.get(r, base, "nrecvs")
            totals["total_bytes_sent"] += r.u64(
                base + LNVC.offsets["bytes_sent"])
            totals["total_bytes_received"] += r.u64(
                base + LNVC.offsets["bytes_received"])
    return totals


def inspect_segment(view: MPFView) -> SegmentInfo:
    """Walk the segment read-only and return its structured state.

    Raises :class:`RegionFormatError` on a cyclic or overlong list
    (:func:`walk_list`).
    """
    r = view.region
    totals = traffic_totals(view)
    circuits = []
    for slot in range(view.cfg.max_lnvcs):
        base = view.layout.lnvc_off(slot)
        if not LNVC.get(r, base, "in_use"):
            continue
        is_ring = bool(LNVC.get(r, base, "transport"))
        circuits.append(
            CircuitInfo(
                lnvc_id=encode_lnvc_id(slot, LNVC.get(r, base, "gen")),
                name=view.read_name(slot).decode("utf-8", "replace"),
                n_senders=LNVC.get(r, base, "n_senders"),
                n_fcfs=LNVC.get(r, base, "n_fcfs"),
                n_bcast=LNVC.get(r, base, "n_bcast"),
                queued=LNVC.get(r, base, "nmsgs"),
                total_enqueued=LNVC.get(r, base, "seq"),
                peak_queued=LNVC.get(r, base, "hwm_nmsgs"),
                messages=(
                    _walk_ring_messages(view, base)
                    if is_ring
                    else _walk_messages(view, slot, base)
                ),
                connections=_walk_connections(view, slot, base),
                transport="ring" if is_ring else "freelist",
            )
        )
    return SegmentInfo(
        circuits=circuits,
        live_msgs=HDR.get(r, "live_msgs"),
        live_blocks=HDR.get(r, "live_blocks"),
        live_bytes=HDR.get(r, "live_bytes"),
        free_send=fl_count(r, HDR.u32["free_send"]),
        free_recv=fl_count(r, HDR.u32["free_recv"]),
        free_msg=fl_count(r, HDR.u32["free_msg"]),
        free_blk=fl_count(r, HDR.u32["free_blk"]),
        total_sends=totals["total_sends"],
        total_receives=totals["total_receives"],
    )


# ---------------------------------------------------------------------------
# structural invariants
# ---------------------------------------------------------------------------

class InvariantViolation(AssertionError):
    """A structural invariant of the shared segment does not hold."""


def _ring_circuit_violations(
    view: MPFView, base: int, tag: str, level: str
) -> list[str]:
    """Ring-transport analogues of the per-circuit FIFO identities.

    The live slot set plays the FIFO's role: its size must match
    ``nmsgs``, its sequence numbers must increase with the claim index,
    cursors must stay within the claimed range, and every pending bitmap
    must be a subset of the registered reader mask.  At ``"final"``
    level the retirement rule must also be exact: an unretired slot owes
    either BROADCAST reads or an FCFS take.
    """
    r = view.region
    lay = view.layout
    cfg = view.cfg
    out: list[str] = []
    ring = LNVC.get(r, base, "ring")
    ridx = lay.ring_index(ring)
    if not (0 <= ridx < cfg.n_rings):
        return [f"{tag}: ring control offset {ring} outside the pool"]
    w = RING.get(r, ring, "next_write")
    f = RING.get(r, ring, "fcfs_next")
    mask = RING.get(r, ring, "reader_mask")
    live = _ring_live_slots(view, base)
    nmsgs = LNVC.get(r, base, "nmsgs")
    if nmsgs != len(live):
        out.append(f"{tag}: nmsgs={nmsgs} but {len(live)} live ring slots")
    if LNVC.get(r, base, "hwm_nmsgs") < nmsgs:
        out.append(f"{tag}: peak depth below current depth")
    if f > w:
        out.append(f"{tag}: fcfs_next={f} ahead of next_write={w}")
    if mask.bit_count() != LNVC.get(r, base, "n_bcast"):
        out.append(
            f"{tag}: reader mask holds {mask.bit_count()} bits but "
            f"n_bcast={LNVC.get(r, base, 'n_bcast')}"
        )
    seqnos = [RSLOT.get(r, sl, "seqno") for _, sl in live]
    if any(b <= a for a, b in zip(seqnos, seqnos[1:])):
        out.append(f"{tag}: sequence numbers not strictly increasing: {seqnos}")
    for idx, sl in live:
        pend = r.u32(sl + RSLOT_PENDING_OFF)
        if pend & ~mask:
            out.append(
                f"{tag}: slot for index {idx} owes reads to unregistered "
                f"reader bits {pend & ~mask:#x}"
            )
        if idx < f:
            st = RSLOT.get(r, sl, "state")
            if st & RS_FCFS_AVAILABLE and not st & RS_FCFS_TAKEN:
                out.append(
                    f"{tag}: FCFS cursor passed untaken available index {idx}"
                )
    for bit in range(RING_READERS):
        if not mask & (1 << bit):
            continue
        cur = RCUR.get(r, lay.ring_cur_off(ridx, bit), "next_seq")
        if cur > w:
            out.append(
                f"{tag}: reader bit {bit} cursor {cur} ahead of "
                f"next_write={w}"
            )
    if level == "final":
        for idx, sl in live:
            if RSLOT.get(r, sl, "busy"):
                out.append(
                    f"{tag}: slot for index {idx} still busy at quiescence"
                )
            st = RSLOT.get(r, sl, "state")
            pend = r.u32(sl + RSLOT_PENDING_OFF)
            if not pend and not (st & RS_FCFS_AVAILABLE and not st & RS_FCFS_TAKEN):
                out.append(
                    f"{tag}: slot for index {idx} fully discharged but "
                    "not retired"
                )
    return out


def collect_violations(
    view: MPFView, *, level: str = "final", expect_empty: bool = False
) -> list[str]:
    """Evaluate the segment's structural invariants; return violations.

    ``level`` selects how much quiescence the caller can vouch for:

    * ``"steady"`` — safe whenever no lock is held.  Checks the
      identities MPF maintains atomically under its locks: allocator
      counters vs free-list lengths, per-circuit FIFO length vs
      ``nmsgs``, strictly increasing sequence numbers, high-water
      marks, and the live-circuit count.  In-flight operations (an
      allocated-but-unlinked message between a send's phases, a popped
      descriptor not yet linked) do not disturb these.
    * ``"final"`` — requires full quiescence (no operation in flight;
      the state at the end of a run).  Adds reachability (every live
      message header/block/byte is on some circuit's FIFO), descriptor
      conservation, FCFS-head exactness, BROADCAST-head membership,
      busy-pin drainage, and descriptor-cache coherence against a
      from-scratch list walk.

    ``expect_empty`` additionally demands the fully drained state every
    clean shutdown must reach: no circuits, no messages, full pools.
    """
    if level not in ("steady", "final"):
        raise ValueError(f"unknown invariant level {level!r}")
    r = view.region
    cfg = view.cfg
    out: list[str] = []

    # The word accessors do not bounds-check (a bad offset raises from
    # ``struct``, or counts from the end): nothing below walks from a
    # head word that is neither NIL nor inside the region.
    def wild(words: dict) -> list[str]:
        return [f"{name} = {off} points outside the region of {r.size}"
                for name, off in words.items() if r.size <= off != NIL]

    out.extend(wild({f: HDR.get(r, f) for f in (
        "free_send", "free_recv", "free_msg", "free_blk", "free_ring")}))
    if out:
        return out

    free_msg = fl_count(r, HDR.u32["free_msg"], limit=cfg.max_messages + 1)
    free_blk = fl_count(r, HDR.u32["free_blk"], limit=cfg.n_blocks + 1)
    live_msgs = HDR.get(r, "live_msgs")
    live_blocks = HDR.get(r, "live_blocks")
    live_bytes = HDR.get(r, "live_bytes")
    if free_msg + live_msgs != cfg.max_messages:
        out.append(
            f"header-pool identity broken: {free_msg} free + {live_msgs} live "
            f"!= {cfg.max_messages} total message headers"
        )
    if free_blk + live_blocks != cfg.n_blocks:
        out.append(
            f"block-pool identity broken: {free_blk} free + {live_blocks} live "
            f"!= {cfg.n_blocks} total blocks"
        )

    in_use_count = 0
    ring_count = 0
    queued_msgs = 0
    queued_blocks = 0
    queued_bytes = 0
    linked_send = 0
    linked_recv = 0
    for slot in range(cfg.max_lnvcs):
        base = view.layout.lnvc_off(slot)
        if not LNVC.get(r, base, "in_use"):
            continue
        in_use_count += 1
        tag = f"lnvc slot {slot}"
        lost = wild({f"{tag}: {f}": LNVC.get(r, base, f) for f in (
            "fifo_head", "fifo_tail", "fcfs_head", "send_list", "recv_list")})
        if lost:
            out.extend(lost)
            continue
        is_ring = bool(LNVC.get(r, base, "transport"))
        if is_ring:
            ring_count += 1
            # Ring circuits have no FIFO; their slot pool carries the
            # equivalent identities, checked separately below.
            fifo = []
            fifo_set: set = set()
            out.extend(_ring_circuit_violations(view, base, tag, level))
        else:
            try:
                fifo = walk_list(view, slot, "FIFO", LNVC.get(r, base, "fifo_head"))
            except RegionFormatError as exc:
                out.append(str(exc))
                continue
            nmsgs = LNVC.get(r, base, "nmsgs")
            if nmsgs != len(fifo):
                out.append(f"{tag}: nmsgs={nmsgs} but FIFO holds {len(fifo)}")
            if LNVC.get(r, base, "hwm_nmsgs") < nmsgs:
                out.append(f"{tag}: peak depth below current depth")
            seqnos = [MSG.get(r, m, "seqno") for m in fifo]
            if any(b <= a for a, b in zip(seqnos, seqnos[1:])):
                out.append(f"{tag}: sequence numbers not strictly increasing: {seqnos}")
            if fifo and LNVC.get(r, base, "fifo_tail") != fifo[-1]:
                out.append(f"{tag}: fifo_tail does not point at the last message")
            if not fifo and LNVC.get(r, base, "fifo_tail") != NIL:
                out.append(f"{tag}: empty FIFO with non-NIL tail")
            queued_msgs += len(fifo)
            queued_blocks += sum(MSG.get(r, m, "nblocks") for m in fifo)
            queued_bytes += sum(MSG.get(r, m, "length") for m in fifo)

        n_senders = LNVC.get(r, base, "n_senders")
        n_fcfs = LNVC.get(r, base, "n_fcfs")
        n_bcast = LNVC.get(r, base, "n_bcast")
        linked_send += n_senders
        linked_recv += n_fcfs + n_bcast

        if level == "final":
            fifo_set = set(fifo)
            # Descriptor lists match the counters and carry unique pids.
            # An overlong list shows as a count one past its pool.
            sends = _walk(view, "send list", LNVC.get(r, base, "send_list"))
            pids = set()
            for desc in sends:
                pid = SEND.get(r, desc, "pid")
                if pid in pids:
                    out.append(f"{tag}: duplicate send descriptor for pid {pid}")
                pids.add(pid)
            if len(sends) != n_senders:
                out.append(
                    f"{tag}: n_senders={n_senders} but send list holds {len(sends)}"
                )
            pids = set()
            got_fcfs = got_bcast = 0
            for desc in _walk(view, "recv list", LNVC.get(r, base, "recv_list")):
                pid = RECV.get(r, desc, "pid")
                if pid in pids:
                    out.append(f"{tag}: duplicate recv descriptor for pid {pid}")
                pids.add(pid)
                proto = Protocol(RECV.get(r, desc, "proto"))
                if proto is Protocol.BROADCAST:
                    got_bcast += 1
                    head = RECV.get(r, desc, "head")
                    if is_ring:
                        # ``head`` is the reader's bitmap index here.
                        ring = LNVC.get(r, base, "ring")
                        mask = RING.get(r, ring, "reader_mask")
                        if head >= RING_READERS or not mask & (1 << head):
                            out.append(
                                f"{tag}: BROADCAST reader bit {head} of pid "
                                f"{pid} not set in the ring reader mask"
                            )
                    elif head != NIL and head not in fifo_set:
                        out.append(
                            f"{tag}: BROADCAST head of pid {pid} "
                            "points outside the FIFO"
                        )
                else:
                    got_fcfs += 1
            if (got_fcfs, got_bcast) != (n_fcfs, n_bcast):
                out.append(
                    f"{tag}: receiver counters ({n_fcfs} FCFS, {n_bcast} BCAST) "
                    f"disagree with the list ({got_fcfs}, {got_bcast})"
                )
            # FCFS head is exactly the first untaken message (or NIL).
            first_untaken = NIL
            for m in fifo:
                if not MSG.get(r, m, "flags") & MsgFlags.FCFS_TAKEN:
                    first_untaken = m
                    break
            if LNVC.get(r, base, "fcfs_head") != first_untaken:
                out.append(f"{tag}: fcfs_head is not the first untaken message")
            for m in fifo:
                if MSG.get(r, m, "busy"):
                    out.append(f"{tag}: message #{MSG.get(r, m, 'seqno')} "
                               "still busy at quiescence")
                if MSG.get(r, m, "bcast_pending") > n_bcast:
                    out.append(f"{tag}: message #{MSG.get(r, m, 'seqno')} owes "
                               "more BROADCAST reads than receivers exist")

    live_lnvcs = HDR.get(r, "live_lnvcs")
    if live_lnvcs != in_use_count:
        out.append(
            f"live_lnvcs={live_lnvcs} but {in_use_count} slots are in use"
        )
    live_rings = HDR.get(r, "live_rings")
    if live_rings != ring_count:
        out.append(
            f"live_rings={live_rings} but {ring_count} ring circuits are in use"
        )

    if level == "final":
        if queued_msgs != live_msgs:
            out.append(
                f"message reachability broken: {live_msgs} live headers but "
                f"{queued_msgs} reachable from circuit FIFOs"
            )
        if queued_blocks != live_blocks:
            out.append(
                f"block reachability broken: {live_blocks} live blocks but "
                f"{queued_blocks} reachable from queued messages"
            )
        if queued_bytes != live_bytes:
            out.append(
                f"byte accounting broken: live_bytes={live_bytes} but queued "
                f"payloads total {queued_bytes}"
            )
        free_send = fl_count(r, HDR.u32["free_send"], limit=cfg.n_send + 1)
        free_recv = fl_count(r, HDR.u32["free_recv"], limit=cfg.n_recv + 1)
        if free_send + linked_send != cfg.n_send:
            out.append(
                f"send-descriptor conservation broken: {free_send} free + "
                f"{linked_send} linked != {cfg.n_send}"
            )
        if free_recv + linked_recv != cfg.n_recv:
            out.append(
                f"recv-descriptor conservation broken: {free_recv} free + "
                f"{linked_recv} linked != {cfg.n_recv}"
            )
        if cfg.n_rings:
            free_ring = fl_count(r, HDR.u32["free_ring"], limit=cfg.n_rings + 1)
            if free_ring + live_rings != cfg.n_rings:
                out.append(
                    f"ring-pool conservation broken: {free_ring} free + "
                    f"{live_rings} live != {cfg.n_rings}"
                )
        out.extend(_cache_violations(view))

    if expect_empty:
        if in_use_count:
            out.append(f"expected empty segment: {in_use_count} circuits live")
        if live_msgs or live_blocks or live_bytes:
            out.append(
                "expected drained pools: "
                f"live_msgs={live_msgs} live_blocks={live_blocks} "
                f"live_bytes={live_bytes}"
            )
        if live_rings:
            out.append(f"expected drained ring pool: live_rings={live_rings}")
    return out


def _cache_violations(view: MPFView) -> list[str]:
    """Check the ``(slot, pid)`` descriptor caches against a re-walk.

    A cache entry whose generation and ``conn_epoch`` still match the
    circuit must name exactly the descriptor (and walk length) a
    from-scratch list walk finds — the coherence contract the PR 2 fast
    path rests on.  Stale entries (generation or epoch moved on) are
    legal; they just miss.
    """
    r = view.region
    out: list[str] = []
    for kind, cache, rec in (
        ("send", view._send_cache, SEND),
        ("recv", view._recv_cache, RECV),
    ):
        for (slot, pid), (desc, steps, gen, epoch) in cache.items():
            if slot >= view.cfg.max_lnvcs:
                continue
            base = view.layout.lnvc_off(slot)
            if not LNVC.get(r, base, "in_use"):
                continue
            if LNVC.get(r, base, "gen") != gen:
                continue
            if LNVC.get(r, base, "conn_epoch") != epoch:
                continue
            chain = _walk(view, f"{kind} list", LNVC.get(r, base, f"{kind}_list"))
            found, walked = NIL, len(chain)
            for i, d in enumerate(chain):
                if rec.get(r, d, "pid") == pid:
                    found, walked = d, i + 1
                    break
            if (found, walked) != (desc, steps):
                out.append(
                    f"{kind}-descriptor cache incoherent for slot {slot} pid "
                    f"{pid}: cached ({desc}, {steps} steps) but a re-walk "
                    f"finds ({found}, {walked} steps)"
                )
    return out


def check_invariants(
    view: MPFView, *, level: str = "final", expect_empty: bool = False
) -> None:
    """Raise :class:`InvariantViolation` unless the segment is consistent.

    The single entry point shared by the :mod:`repro.check` model
    checker and the test suite (see :func:`collect_violations` for what
    each ``level`` covers).
    """
    violations = collect_violations(view, level=level, expect_empty=expect_empty)
    if violations:
        raise InvariantViolation(
            f"{len(violations)} invariant violation(s):\n  "
            + "\n  ".join(violations)
        )


def render_segment(info: SegmentInfo) -> str:
    """Human-readable report of a :class:`SegmentInfo`."""
    lines = [
        f"segment: {len(info.circuits)} live circuit(s), "
        f"{info.live_msgs} queued message(s), {info.live_bytes} payload bytes",
        f"  pools free: send={info.free_send} recv={info.free_recv} "
        f"msg={info.free_msg} blk={info.free_blk}",
        f"  traffic: {info.total_sends} sends, {info.total_receives} receives",
    ]
    for c in info.circuits:
        lines.append(
            f"  circuit '{c.name}' (id {c.lnvc_id}): "
            f"{c.n_senders} sender(s), {c.n_fcfs} FCFS, {c.n_bcast} BCAST; "
            f"{c.queued} queued of {c.total_enqueued} ever (peak {c.peak_queued})"
        )
        for conn in c.connections:
            extra = ""
            if conn.kind == "recv":
                extra = f" {conn.protocol.name}, {conn.reads} reads"
                if conn.backlog is not None:
                    extra += f", backlog {conn.backlog}"
            lines.append(f"    {conn.kind} pid={conn.pid}{extra}")
        for m in c.messages:
            lines.append(
                f"    msg #{m.seqno}: {m.length}B in {m.nblocks} block(s) "
                f"from pid {m.sender}, pending {m.bcast_pending}, "
                f"flags {m.flags.name or int(m.flags)}"
            )
    return "\n".join(lines)
