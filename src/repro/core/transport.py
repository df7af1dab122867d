"""The transport layer: how message bytes move between processes.

The MPF *protocol* — LNVC naming, FCFS/BROADCAST delivery, the §3.2
retirement rule — is independent of how payload bytes physically travel
through the shared segment.  This module formalizes that split:

* ``"freelist"`` — the paper's 1987 design: variable-length messages
  as chains of 10-byte blocks from one global free list, linked into a
  per-circuit FIFO.  Flexible, but every send crosses the global
  ``ALLOC_LOCK`` and the sender's critical section grows with the
  receiver count — the contention collapse of Figure 4 (§4).
* ``"ring"`` — the modern answer, after kzimp's "Memory Passing
  Sockets" (``mpsoc.h``): a per-circuit array of fixed-size
  cache-line-aligned slots, a monotone write index, per-reader cursors
  each on their own cache line, and a per-slot reader bitmap for
  BROADCAST completion.  No allocator, no list walks; a sender's
  critical section is a constant-size index claim.

The transport is chosen per circuit at creation time
(:attr:`~repro.core.layout.MPFConfig.transport` sets the default,
:attr:`~repro.core.layout.MPFConfig.transports` overrides by name) and
recorded in the LNVC's ``transport`` field (0 free-list,
:data:`~repro.core.structs.RING_TAG` ring); :mod:`repro.core.ops`
dispatches send and receive on that one u32 — each transport's send and
receive is one cached section there, the ring's
:class:`~repro.core.ops.RingSendSection` and
:class:`~repro.core.ops.RingRecvSection`, whose stages call the ring
kernels of :mod:`repro.core.chains` — and a check's
:class:`~repro.core.ops.PollWalk` reads it once, when it is built, to
count with :func:`ring_count`.  This module keeps what a circuit's
lifecycle does to its ring.  Both transports speak
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

from .chains import _ring_retire_check
from .effects import OpGen, _release_and_raise, charge
from .errors import OutOfDescriptorsError, OutOfMessageMemoryError
from .freelist import fl_alloc, fl_free
from .layout import HDR
from .protocol import GLOBAL_LOCK, NIL
from .structs import (
    LNVC,
    RCUR,
    RECV,
    RING,
    RING_READERS,
    RING_TAG,
    RSLOT,
    RSLOT_PENDING_OFF,
    RS_FCFS_AVAILABLE,
    RS_FCFS_TAKEN,
    RS_RETIRED,
)

__all__ = [
    "RING_READS",
    "RING_STORES",
    "ring_count",
    "ring_attach",
    "ring_release",
    "ring_register_reader",
    "ring_unregister_reader",
]

# Constant-folded field offsets, as in ops.py.
_L_RING = LNVC.offsets["ring"]

_RG_NEXT_WRITE = RING.offsets["next_write"]
_RG_READER_MASK = RING.offsets["reader_mask"]

_RS_SEQ = RSLOT.offsets["seq"]
_RS_STATE = RSLOT.offsets["state"]

_RC_NEXT_SEQ = RCUR.offsets["next_seq"]
_RC_NREADS = RCUR.offsets["nreads"]

_H_FREE_RING = HDR.u32["free_ring"]

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
    LNVC.set(r, base, "transport", RING_TAG)
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
            if _ring_retire_check(view, base, sl, unread=1 << bit):
                retired = True
    return retired


# ---------------------------------------------------------------------------
# the check's count (ops.PollWalk runs it; the send and receive are the
# sections of core/ops.py, RingSendSection and RingRecvSection)
# ---------------------------------------------------------------------------


def ring_count(view, base: int, fcfs: bool, bit: int) -> int:
    """The messages a receiver of the ring circuit whose LNVC record is
    at ``base`` can take now (advisory, as ever for FCFS): the body of
    :func:`~repro.core.ops.check_receive` on a ring, which its
    :class:`~repro.core.ops.PollWalk` runs with the circuit lock held.
    ``bit`` is a BROADCAST receiver's reader bit."""
    u32 = view.region.u32
    lay = view.layout
    ring = u32(base + _L_RING)
    ridx = lay.ring_index(ring)
    slot0 = lay.ring_slot_off(ridx, 0)
    stride = lay.ring_stride
    nslots = view.cfg.ring_slots
    count = 0
    if fcfs:
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
    return count
