"""The transport layer: how message bytes move between processes.

The MPF *protocol* — LNVC naming, FCFS/BROADCAST delivery, the §3.2
retirement rule — is independent of how payload bytes physically travel
through the shared segment.  This module formalizes that split:

* :class:`FreelistTransport` — the paper's 1987 design: variable-length
  messages as chains of 10-byte blocks from one global free list, linked
  into a per-circuit FIFO.  Flexible, but every send crosses the global
  ``ALLOC_LOCK`` and the sender's critical section grows with the
  receiver count — the contention collapse of Figure 4 (§4).
* :class:`RingTransport` — the modern answer, after kzimp's "Memory
  Passing Sockets" (``mpsoc.h``): a per-circuit array of fixed-size
  cache-line-aligned slots, a monotone write index, per-reader cursors
  each on their own cache line, and a per-slot reader bitmap for
  BROADCAST completion.  No allocator, no list walks; a sender's
  critical section is a constant-size index claim.

The transport is chosen per circuit at creation time
(:attr:`~repro.core.layout.MPFConfig.transport` sets the default,
:attr:`~repro.core.layout.MPFConfig.transports` overrides by name) and
recorded in the LNVC's ``transport`` field; :mod:`repro.core.ops`
dispatches each hot primitive on that one u32.  Both transports speak
the same protocol: same primitives, same blocking semantics, same
retirement rule, same observability hooks.

Ring data layout (see also docs/transport.md)::

    RING control    | next_write | fcfs_next | reader_mask |  (1 line)
    RCUR cursor x32 | next_seq | nreads |                     (1 line each)
    slot k          | seq len seqno sender state busy |       (line 0)
                    | pending bitmap |                        (line 1)
                    | payload ... |                           (lines 2..)

A message claims index ``w = next_write++``, fills slot
``w % ring_slots`` and *commits* by storing ``w + 1`` into the slot's
``seq`` word, all in one circuit-lock section — the sender queues
behind its receivers exactly once per message, like the free-list
sender's single link step.  Readers recognise exactly
``seq == index + 1`` as "mine": a stale ``seq`` from an earlier lap can
never alias a fresh message, which is what makes slot reuse safe (the
``ring-wrap`` check scenario exercises this).  The real mpsoc claims
with one fetch-and-add and commits with one atomic store, no lock at
all; this portable reproduction serializes both through the circuit
lock and *models* the coherence cost of the lock-free original
(:attr:`~repro.core.costmodel.Costs.cacheline_xfer`).
"""

from __future__ import annotations

from .effects import ChargeMany, OpGen, _release_and_raise, charge
from .errors import (
    BufferOverflowError,
    NotConnectedError,
    OutOfDescriptorsError,
    OutOfMessageMemoryError,
    UnknownLNVCError,
)
from .freelist import fl_alloc, fl_free
from .layout import HDR
from .protocol import FIRST_LNVC_LOCK, GLOBAL_LOCK, NIL, SLOT_BITS, Protocol
from .region import U32_MASK as _M32, U64_MASK as _M64
from .structs import (
    CACHE_LINE,
    LNVC,
    RCUR,
    RECV,
    RING,
    RING_READERS,
    RSLOT,
    RSLOT_DATA_OFF,
    RSLOT_PENDING_OFF,
    RS_FCFS_AVAILABLE,
    RS_FCFS_TAKEN,
    RS_RETIRED,
)
from .work import Work

__all__ = [
    "FreelistTransport",
    "RingTransport",
    "TRANSPORTS",
    "RING_READS",
    "RING_STORES",
    "ring_send",
    "ring_receive",
    "ring_check",
    "ring_attach",
    "ring_release",
    "ring_register_reader",
    "ring_unregister_reader",
]

# Constant-folded field offsets, as in ops.py: the ring primitives run
# once per message in figure sweeps.
_L_NMSGS = LNVC.offsets["nmsgs"]
_L_SEQ = LNVC.offsets["seq"]
_L_RING = LNVC.offsets["ring"]
_L_NRECVS = LNVC.offsets["nrecvs"]
_L_BYTES_SENT = LNVC.offsets["bytes_sent"]

_R_NREADS = RECV.offsets["nreads"]

_RG_NEXT_WRITE = RING.offsets["next_write"]
_RG_FCFS_NEXT = RING.offsets["fcfs_next"]
_RG_READER_MASK = RING.offsets["reader_mask"]

_RS_SEQ = RSLOT.offsets["seq"]
_RS_LENGTH = RSLOT.offsets["length"]
_RS_STATE = RSLOT.offsets["state"]

_RC_NEXT_SEQ = RCUR.offsets["next_seq"]
_RC_NREADS = RCUR.offsets["nreads"]

_H_FREE_RING = HDR.u32["free_ring"]

_P_FCFS = int(Protocol.FCFS)

#: The ring records' share of :data:`repro.core.ops.READS` / ``STORES``
#: (which see): runs of adjacent fields moved by one call.  A slot's
#: commit word ``seq`` and its ``pending`` bitmap are in no stored run —
#: the commit is a store of its own, last; the bitmap has its own line —
#: and the cursor line belongs to its reader alone.
RING_READS = {
    "ring": RING.run("next_write", "reader_mask"),
    "rslot": RSLOT.run("seq", "busy"),
    "rslot_msg": RSLOT.run("length", "seqno"),
    "rslot_pins": RSLOT.run("state", "busy"),
    "rcur": RCUR.run("next_seq", "nreads"),
}
RING_STORES = {
    "rslot_body": RSLOT.run("length", "busy"),
    "rslot_pins": RING_READS["rslot_pins"],
    "rcur": RING_READS["rcur"],
}


class FreelistTransport:
    """The paper's block-chain transport (implemented in ops.py).

    Variable-length payloads, one global block pool, per-circuit linked
    FIFO.  Its contention profile: every send and every reap crosses
    ``ALLOC_LOCK``, and the sender walks the receiver list under the
    circuit lock, so critical sections grow with fan-out.
    """

    kind = "freelist"
    #: LNVC ``transport`` field value.
    tag = 0


class RingTransport:
    """The mpsoc-style fixed-slot ring transport (this module).

    Bounded payloads (``ring_slot_bytes``), no shared allocator,
    constant-size critical sections.  A full ring blocks senders until a
    slot retires — backpressure instead of the free-list transport's
    pool-exhaustion error.
    """

    kind = "ring"
    tag = 1


#: Transport registry, keyed by the config's ``transport`` strings.
TRANSPORTS = {t.kind: t for t in (FreelistTransport, RingTransport)}


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _lines(length: int) -> int:
    """Cache lines one message touches: header + bitmap + payload."""
    return 2 + (length + CACHE_LINE - 1) // CACHE_LINE


def ring_retire_check(view, base: int, sl: int, unpin: int = 0,
                      unread: int = 0) -> bool:
    """Drop ``unpin`` busy pins and the pending bits ``unread`` from the
    slot at ``sl``, then apply the retirement rule to it; True if it
    retires (now or earlier).

    Mirrors ops._retire_check: a slot retires when its pending reader
    bitmap is empty, nobody is copying out of it, and its FCFS
    obligation is discharged.  ``RS_FCFS_AVAILABLE`` covers both the
    "an FCFS receiver must take this" case and the "no receivers at
    enqueue — hold for a future FCFS joiner" case (paper §3.2).
    Caller holds the circuit lock.
    """
    r = view.region
    st, busy = view._rd_rslot_pins(sl + _RS_STATE)
    pend = r.u32(sl + RSLOT_PENDING_OFF)
    if unread:
        pend &= ~unread
        r.set_u32(sl + RSLOT_PENDING_OFF, pend)
    busy = (busy - unpin) & _M32
    retire = not (st & RS_RETIRED or pend or busy
                  or (st & RS_FCFS_AVAILABLE and not st & RS_FCFS_TAKEN))
    if retire:
        st |= RS_RETIRED
        r.add_u32(base + _L_NMSGS, -1)
    if retire or unpin:
        view._wr_rslot_pins(sl + _RS_STATE, st, busy)
    return bool(st & RS_RETIRED)


# ---------------------------------------------------------------------------
# circuit lifecycle hooks (called from ops open/close/delete paths)
# ---------------------------------------------------------------------------


def ring_attach(view, slot: int, base: int) -> OpGen:
    """Bind a freshly created circuit to a ring from the pool.

    Caller holds the global lock (open path).  Allocates the control
    block under ``ALLOC_LOCK``, resets it, and zeroes the slot headers
    and cursors of a possible previous tenant.
    """
    r = view.region
    lay = view.layout
    cfg = view.cfg
    yield view._alloc_acq
    ring = fl_alloc(r, _H_FREE_RING)
    yield view._alloc_rel
    if ring == NIL:
        # Roll the just-created circuit back before raising: no public
        # identifier has escaped yet, so resetting in_use suffices.
        LNVC.set(r, base, "in_use", 0)
        HDR.add(r, "live_lnvcs", -1)
        yield from _release_and_raise(
            [GLOBAL_LOCK], OutOfMessageMemoryError("ring pool exhausted")
        )
    r.fill(ring, RING.size, 0)
    ridx = lay.ring_index(ring)
    r.fill(lay.ring_cur_off(ridx, 0), RING_READERS * RCUR.size, 0)
    for i in range(cfg.ring_slots):
        RSLOT.clear(r, lay.ring_slot_off(ridx, i))
        r.set_u32(lay.ring_slot_off(ridx, i) + RSLOT_PENDING_OFF, 0)
    LNVC.set(r, base, "transport", RingTransport.tag)
    LNVC.set(r, base, "ring", ring)
    HDR.add(r, "live_rings", 1)
    yield charge(view.costs.open_fixed // 2, "ring-setup",
                 page_bytes=cfg.ring_slots * lay.ring_stride)
    return ring


def ring_release(view, base: int) -> OpGen:
    """Return a deleted circuit's ring to the pool (caller holds the
    global and circuit locks; called before the LNVC record is cleared)."""
    r = view.region
    ring = r.u32(base + _L_RING)
    yield view._alloc_acq
    fl_free(r, _H_FREE_RING, ring)
    yield view._alloc_rel
    HDR.add(r, "live_rings", -1)
    return None


def ring_register_reader(view, base: int, desc: int) -> None:
    """Assign a BROADCAST reader its bitmap index and tail cursor.

    Caller holds the circuit lock (open_receive path).  The bit index is
    stored in the descriptor's ``head`` field — unused on ring circuits,
    where per-reader progress lives in the RCUR cursor instead.  Raises
    when all :data:`RING_READERS` indexes are taken.
    """
    r = view.region
    ring = r.u32(base + _L_RING)
    mask = r.u32(ring + _RG_READER_MASK)
    bit = 0
    while bit < RING_READERS and mask & (1 << bit):
        bit += 1
    if bit == RING_READERS:
        raise OutOfDescriptorsError(
            f"ring circuit already has {RING_READERS} BROADCAST readers"
        )
    r.set_u32(ring + _RG_READER_MASK, mask | (1 << bit))
    RECV.set(r, desc, "head", bit)
    ridx = view.layout.ring_index(ring)
    cur = view.layout.ring_cur_off(ridx, bit)
    # Join at the tail: hear only messages claimed after this point.
    r.set_u32(cur + _RC_NEXT_SEQ, r.u32(ring + _RG_NEXT_WRITE))
    r.set_u32(cur + _RC_NREADS, 0)


def ring_unregister_reader(view, base: int, desc: int) -> bool:
    """Remove a closing BROADCAST reader: drop its mask bit and shed its
    pending bit from every committed live slot (the ring analogue of the
    free-list close_receive walk).  Returns True if any slot retired —
    the caller must wake the circuit's channel after releasing, since a
    sender blocked on a full ring may now proceed.

    Claimed-but-uncommitted slots cannot exist here: a sender claims,
    fills and commits inside one circuit-lock section, and this runs
    under the same lock.  Caller holds the circuit lock.
    """
    r = view.region
    u32 = r.u32
    lay = view.layout
    nslots = view.cfg.ring_slots
    ring = u32(base + _L_RING)
    bit = RECV.get(r, desc, "head")
    r.set_u32(ring + _RG_READER_MASK, u32(ring + _RG_READER_MASK) & ~(1 << bit))
    retired = False
    w = u32(ring + _RG_NEXT_WRITE)
    idx = w - nslots if w > nslots else 0
    while idx < w:
        sl = lay.ring_slot_off(lay.ring_index(ring), idx % nslots)
        idx += 1
        if u32(sl + _RS_SEQ) != idx:  # uncommitted, or an older lap
            continue
        if u32(sl + _RS_STATE) & RS_RETIRED:
            continue
        if u32(sl + RSLOT_PENDING_OFF) & (1 << bit):
            if ring_retire_check(view, base, sl, unread=1 << bit):
                retired = True
    return retired


# ---------------------------------------------------------------------------
# hot primitives (dispatched to from ops.message_send / message_receive /
# check_receive when the circuit's transport field says "ring")
# ---------------------------------------------------------------------------


def ring_send(view, pid: int, slot: int, base: int, lnvc_id: int, data: bytes,
              prelude: Work | None = None) -> OpGen:
    """message_send over the ring transport (``slot`` is ``lnvc_id``'s,
    inside the table, ``base`` its descriptor's offset — what the
    dispatch in :mod:`repro.core.ops` has worked out already).

    Claim an index, fill the slot and store the commit word in ONE
    circuit-lock section, then wake.  A single section matters: the
    sender queues behind the receiver herd's lock sections once per
    message — exactly as often as the free-list sender queues for its
    link step — so it can run ahead and build a backlog instead of
    lock-stepping with its readers.  (Holding the lock across the fill
    also makes the pending snapshot exact: no reader can register or
    close mid-fill.)  Blocks (WaitOn) when the ring is full —
    backpressure where the free-list transport raises
    ``OutOfMessageMemoryError``.
    """
    if not isinstance(data, (bytes, bytearray, memoryview)):
        raise TypeError("message payload must be bytes-like")
    data = bytes(data)
    r = view.region
    u32 = r.u32
    set_u32 = r.set_u32
    c = view.costs
    lay = view.layout
    cfg = view.cfg
    length = len(data)
    if length > cfg.ring_slot_bytes:
        raise BufferOverflowError(
            f"{length}-byte message exceeds ring slot capacity "
            f"of {cfg.ring_slot_bytes} bytes"
        )
    probe = view.probe
    t_entry = probe.now() if probe is not None else 0.0
    if prelude is None:
        yield view._ring_send_fixed
    else:
        yield ChargeMany((prelude, view._ring_send_fixed_work))

    yield view._acq[slot]
    try:
        steps = view.send_conn(pid, lnvc_id)
    except (UnknownLNVCError, NotConnectedError) as exc:
        yield from _release_and_raise([FIRST_LNVC_LOCK + slot], exc)

    ring = u32(base + _L_RING)
    slot0 = lay.ring_slot_off(lay.ring_index(ring), 0)
    stride = lay.ring_stride
    nslots = cfg.ring_slots
    rd_ring, rd_rslot = view._rd_ring, view._rd_rslot
    # Claim: wait until the target slot's previous tenant has retired.
    while True:
        w, _, pending = rd_ring(ring)
        sl = slot0 + (w % nslots) * stride
        seq, _, _, _, st, _ = rd_rslot(sl)
        if seq == 0 or st & RS_RETIRED:
            break
        yield view._waiton[slot]
        yield view._recv_wakeup
    set_u32(ring + _RG_NEXT_WRITE, w + 1)
    (nmsgs, _, _, _, _, _, _, n_fcfs, n_bcast, seqno,
     hwm) = view._rd_queue(base + _L_NMSGS)
    # Receivers-at-enqueue snapshot, as in the free-list transport: an
    # FCFS obligation when FCFS receivers exist, and a hold-for-future-
    # joiner obligation when no receiver of either kind exists.
    if n_fcfs or not (pending or n_bcast):
        state = RS_FCFS_AVAILABLE
    else:
        state = 0
    depth = (nmsgs + 1) & _M32
    set_u32(base + _L_NMSGS, depth)
    view._wr_seq_hwm(base + _L_SEQ, (seqno + 1) & _M32,
                     depth if depth > hwm else hwm)
    (sent,) = view._rd_sent(base + _L_BYTES_SENT)
    view._wr_sent(base + _L_BYTES_SENT, (sent + length) & _M64)
    yield view._ring_claim
    t_claim = probe.now() if probe is not None else 0.0

    # Fill — still under the lock, so the pending snapshot above stays
    # exact (nobody can open or close a receive connection mid-fill).
    # The header words behind the commit word are one store; the bitmap
    # sits on a line of its own.
    view._wr_rslot_body(sl + _RS_LENGTH, length, seqno, pid & _M32, state, 0)
    set_u32(sl + RSLOT_PENDING_OFF, pending)
    r.write(sl + RSLOT_DATA_OFF, data)
    yield charge(
        length * c.copy_byte + _lines(length) * c.cacheline_xfer
        + steps * c.list_step,
        "ring-fill", length, 0, stride)
    t_fill = probe.now() if probe is not None else 0.0

    # Commit: store the commit word, retire a degenerate message whose
    # audience is empty (nothing pending, no FCFS obligation: the rule
    # cannot fire otherwise), release the single lock section.
    set_u32(sl + _RS_SEQ, w + 1)
    if not (pending or state):
        ring_retire_check(view, base, sl)
    yield view._ring_commit
    yield view._rel[slot]
    if probe is not None:
        probe.msg_sent(pid, slot, lnvc_id >> SLOT_BITS, seqno, length,
                       _lines(length), depth, t_entry, t_claim, t_fill,
                       occupancy=depth)
    yield view._wake[slot]
    return seqno


def ring_receive(view, pid: int, slot: int, base: int, lnvc_id: int,
                 max_len: int | None = None) -> OpGen:
    """message_receive over the ring transport (``slot``, ``base``: as
    for :func:`ring_send`).

    A BROADCAST reader takes committed slots on a *lock-free* fast
    path — the mpsoc read side.  Its cursor is private (one cache line,
    written only by this reader), the commit word ``seq == index + 1``
    is self-validating, and its pending bit already pins the slot
    against retirement until the completion section clears it, so
    observing and claiming a committed message needs no lock at all.
    The circuit lock is taken only to park race-free when the cursor
    has caught up with the sender (check-then-WaitOn under the lock, so
    the sender's commit+wake cannot be lost) and for the completion
    section.

    An FCFS reader always goes through the lock: it advances the
    *shared* ``fcfs_next`` cursor over committed slots, skipping those
    with no FCFS obligation, and pins its slot with the ``busy`` count
    while copying (its claim leaves no pending bit to protect it).

    Either way the payload copy runs outside the circuit lock, exactly
    as in the free-list transport.
    """
    r = view.region
    u32 = r.u32
    set_u32 = r.set_u32
    c = view.costs
    lay = view.layout
    probe = view.probe
    t_entry = probe.now() if probe is not None else 0.0
    lock = FIRST_LNVC_LOCK + slot
    yield view._ring_recv_fixed
    nslots = view.cfg.ring_slots
    stride = lay.ring_stride
    rd_recv, rd_rcur = view._rd_recv, view._rd_rcur

    # -- lock-free BROADCAST fast path -----------------------------------
    # Valid only on a connection-cache hit: our own receive connection
    # being open is what forbids circuit deletion and generation reuse,
    # and the epoch check proves the cached descriptor offset is what a
    # fresh (locked) walk would find.  Reads here follow the seqlock
    # discipline: the sender publishes the commit word *last*, so any
    # slot whose ``seq`` matches our cursor is fully filled — which is
    # why ``seq`` is a word read of its own, ahead of the record read of
    # the fields it publishes.  Stores cover only what this reader owns:
    # its cursor line, and its descriptor's ``nreads`` word.
    is_fcfs = True
    taken = False
    desc = view.cached_recv(pid, lnvc_id)
    if desc != NIL:
        _, proto, bit, _, nreads = rd_recv(desc)
        if proto != _P_FCFS:
            is_fcfs = False
            ring = u32(base + _L_RING)
            ridx = lay.ring_index(ring)
            cur = lay.ring_cur_off(ridx, bit)
            idx, creads = rd_rcur(cur)
            sl = lay.ring_slot_off(ridx, 0) + (idx % nslots) * stride
            if u32(sl + _RS_SEQ) == idx + 1:
                length, seqno = view._rd_rslot_msg(sl + _RS_LENGTH)
                if max_len is not None and length > max_len:
                    raise BufferOverflowError(
                        f"next message is {length} bytes, "
                        f"buffer holds {max_len}"
                    )
                view._wr_rcur(cur, (idx + 1) & _M32, (creads + 1) & _M32)
                set_u32(desc + _R_NREADS, nreads + 1)
                taken = True

    if taken:
        yield view._ring_cursor
        t_claim = probe.now() if probe is not None else 0.0
    else:
        yield view._acq[slot]
        try:
            desc, steps = view.recv_conn(pid, lnvc_id)
        except (UnknownLNVCError, NotConnectedError) as exc:
            yield from _release_and_raise([lock], exc)
        yield charge(steps * c.list_step, "recv-find")

        ring = u32(base + _L_RING)
        ridx = lay.ring_index(ring)
        slot0 = lay.ring_slot_off(ridx, 0)
        rd_rslot = view._rd_rslot
        # ``nreads`` is this receiver's own word: no sleep below stales it.
        _, proto, bit, _, nreads = rd_recv(desc)
        is_fcfs = proto == _P_FCFS
        if is_fcfs:
            # Scan the shared cursor forward over committed slots; stop
            # at the first FCFS-available one, park at the first
            # uncommitted index (commits happen in claim order per slot,
            # but a later index may commit before an earlier one — FCFS
            # order waits).
            while True:
                w, idx, _ = view._rd_ring(ring)
                found = False
                while idx < w:
                    sl = slot0 + (idx % nslots) * stride
                    seq, length, seqno, _, st, busy = rd_rslot(sl)
                    if seq != idx + 1:
                        break
                    if st & RS_FCFS_AVAILABLE and not st & (
                        RS_FCFS_TAKEN | RS_RETIRED
                    ):
                        found = True
                        break
                    idx += 1
                if found:
                    break
                set_u32(ring + _RG_FCFS_NEXT, idx)
                yield view._waiton[slot]
                yield view._recv_wakeup
            if max_len is not None and length > max_len:
                set_u32(ring + _RG_FCFS_NEXT, idx)
                yield from _release_and_raise(
                    [lock],
                    BufferOverflowError(
                        f"next message is {length} bytes, "
                        f"buffer holds {max_len}"
                    ),
                )
            set_u32(ring + _RG_FCFS_NEXT, idx + 1)
            # Pin against retirement while we copy outside the lock: an
            # FCFS claim clears no pending bit, so ``busy`` is its pin.
            view._wr_rslot_pins(sl + _RS_STATE, st | RS_FCFS_TAKEN,
                                (busy + 1) & _M32)
            yield view._ring_claim
        else:
            cur = lay.ring_cur_off(ridx, bit)
            while True:
                idx, creads = rd_rcur(cur)
                sl = slot0 + (idx % nslots) * stride
                if u32(sl + _RS_SEQ) == idx + 1:
                    break
                yield view._waiton[slot]
                yield view._recv_wakeup
            length, seqno = view._rd_rslot_msg(sl + _RS_LENGTH)
            if max_len is not None and length > max_len:
                yield from _release_and_raise(
                    [lock],
                    BufferOverflowError(
                        f"next message is {length} bytes, "
                        f"buffer holds {max_len}"
                    ),
                )
            view._wr_rcur(cur, (idx + 1) & _M32, (creads + 1) & _M32)
            yield view._ring_cursor
        set_u32(desc + _R_NREADS, nreads + 1)
        t_claim = probe.now() if probe is not None else 0.0
        yield view._rel[slot]

    # Copy phase — concurrent with other readers of the same slot.
    payload = r.read(sl + RSLOT_DATA_OFF, length)
    yield charge(length * c.copy_byte + _lines(length) * c.cacheline_xfer,
                 "ring-copy", length)
    t_drain = probe.now() if probe is not None else 0.0

    # Completion: drop the pin (busy for FCFS, our pending bit for
    # BROADCAST), retire.
    yield view._acq[slot]
    if is_fcfs:
        retired = ring_retire_check(view, base, sl, unpin=1)
    else:
        retired = ring_retire_check(view, base, sl, unread=1 << bit)
    # A blocked sender always parks on slot ``next_write % nslots`` (it
    # waits *before* claiming), so a retire elsewhere in the ring cannot
    # unblock anyone: waking only on a match spares the receiver herd a
    # futile wakeup per message.  (``idx`` is the message this slot
    # holds: nothing can reuse it before this section retires it.)
    wake_sender = retired and (
        idx % nslots == u32(ring + _RG_NEXT_WRITE) % nslots
    )
    yield view._ring_consume
    nrecvs, sent, received = view._rd_traffic(base + _L_NRECVS)
    view._wr_traffic(base + _L_NRECVS, (nrecvs + 1) & _M32, sent,
                     (received + length) & _M64)
    yield view._rel[slot]
    if wake_sender:
        yield view._wake[slot]
    if probe is not None:
        probe.msg_received(pid, slot, lnvc_id >> SLOT_BITS, seqno, length,
                           is_fcfs, t_entry, t_claim, t_drain,
                           occupancy=u32(base + _L_NMSGS))
    return payload


def ring_check(view, pid: int, slot: int, base: int, lnvc_id: int,
               prelude: Work | None = None) -> OpGen:
    """check_receive over the ring transport (advisory, as ever for
    FCFS; ``slot``, ``base``: as for :func:`ring_send`)."""
    u32 = view.region.u32
    lay = view.layout

    if prelude is None:
        yield view._check_fixed
    else:
        yield ChargeMany((prelude, view._check_fixed_work))
    yield view._acq[slot]
    try:
        desc, steps = view.recv_conn(pid, lnvc_id)
    except (UnknownLNVCError, NotConnectedError) as exc:
        yield from _release_and_raise([FIRST_LNVC_LOCK + slot], exc)
    ring = u32(base + _L_RING)
    ridx = lay.ring_index(ring)
    slot0 = lay.ring_slot_off(ridx, 0)
    stride = lay.ring_stride
    nslots = view.cfg.ring_slots
    count = 0
    _, proto, bit, _, _ = view._rd_recv(desc)
    if proto == _P_FCFS:
        rd_rslot = view._rd_rslot
        w, idx, _ = view._rd_ring(ring)
        while idx < w:
            seq, _, _, _, st, _ = rd_rslot(slot0 + (idx % nslots) * stride)
            if seq != idx + 1:
                break
            if st & RS_FCFS_AVAILABLE and not st & (RS_FCFS_TAKEN | RS_RETIRED):
                count += 1
            idx += 1
    else:
        (idx, _) = view._rd_rcur(lay.ring_cur_off(ridx, bit))
        while u32(slot0 + (idx % nslots) * stride + _RS_SEQ) == idx + 1:
            count += 1
            idx += 1
    yield charge((steps + count) * view.costs.list_step, "check-walk")
    yield view._rel[slot]
    return count
