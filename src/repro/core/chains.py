"""The kernels the message path calls, in C where it can.

A message body is a chain of fixed-size blocks (§3.1, and
:mod:`repro.core.freelist`), and the path touches one four ways: a send
pops ``n`` blocks off the free list and fills them, a receive drains
one, and a reap that frees a chain nobody drained walks it to its last
block.  The path carries a chain as its ends, ``(first, last, n)``:
returning a chain to a list is one store (its last block's link,
:func:`~repro.core.freelist.splice_chain`), and the header holds
``first`` and ``n``.  So the chain kernels build no lists, and each is
one C loop over the region's buffer — the paper's own few hundred lines
of C, where the interpreter paid per block:

``pop(region, first, n)``
    ``(last, next)`` of the ``n`` records from ``first``, or ``None``
    when the list is shorter (a link outside the region raises
    ``IndexError``, as :meth:`SharedRegion.follow` does);
``fill(region, first, n, data, bs)``
    copies the ``bytes`` ``data`` over a popped chain and stores last →
    ``NIL``;
``drain(region, first, n, length, bs)``
    ``(last, payload)``: the first ``length`` bytes the chain carries;
``last(region, first, n)``
    the last block of a message's chain, bounded by ``n``.

Drain and last raise :class:`RegionFormatError` for a chain that is
cyclic, short or leaves the region.

The lock-section kernels are the rest of the path's shared-memory work:
the body of each free-list critical section of
:func:`~repro.core.ops.message_send` / ``message_receive``, from one
effect its generator yields to the next, one C call each, as the
paper's sections are a few lines of C.  The generator keeps
the effects, their order and their charges, the connection caches, the
wait loop and the probe calls; a section kernel takes the view and
returns plain values:

``alloc(view, nblk, length)`` — ``ALLOC_LOCK``
    ``(header, first block)`` for a message off the free lists, the
    pool counts and their high-water marks stored; ``(NIL, dry)`` when
    the pool whose head word is at ``dry`` ran out;
``link(view, base, hdr, pid, length, first, nblk, stale=None)`` — circuit
    ``(seqno, depth, receivers walked)``: the header filled and linked
    at the FIFO tail, caught-up BROADCAST receivers pointed at it, its
    bytes counted; ``stale`` is the torn-send fault's seam;
``claim(view, base, desc, max_len)`` — circuit
    ``(header, first, nblk, length, seqno, is FCFS)`` of the message
    claimed for a receive descriptor, ``None`` on an empty queue (the C
    kernel's own answer, nothing written),
    :class:`~repro.core.errors.BufferOverflowError` past ``max_len``;
``complete(view, base, msg, unread, last, length)`` — circuit
    the pin dropped, the retirement rule applied, the retired head of
    the FIFO unlinked with its chains spliced into one, the receive
    counted: ``None``, or the reap ``(head, n, depth, first, last,
    blocks, bytes)``;
``free(view, head, n, first, last, nblk, nbytes)`` — ``ALLOC_LOCK``
    ``n`` headers from ``head`` and one chain back to the free lists.

The ring kernels are the same for the ring's sections
(:class:`repro.core.ops.RingSendSection`,
:class:`~repro.core.ops.RingRecvSection`), whose steps keep the effects,
the connection check, the waits and the probe calls:

``ring_fill(view, base, pid, data)`` — circuit
    ``(commit word value, slot, seqno, depth)``: the next index claimed,
    the message counted in and its slot filled — all but the commit
    word; ``None`` on a full ring;
``ring_commit(view, base, slot, seq)`` — circuit
    the commit word stored, a message nobody is owed retired;
``ring_take(view, base, pid, lnvc_id, max_len)`` — no lock
    the lock-free BROADCAST take on a connection-cache hit: ``(slot,
    length, seqno, pending bit owed, index)``, or ``None``;
``ring_claim(view, base, desc, max_len)`` — circuit
    the same for the locked BROADCAST take or the FCFS scan (bit 0),
    ``None`` when there is nothing yet;
``ring_complete(view, base, slot, unread, idx, length)`` — circuit
    the pin dropped, the retirement rule applied, the receive counted:
    whether to wake a sender waiting for that slot.

The take and the claim raise :class:`BufferOverflowError` past
``max_len``, taking nothing.

Two more kernels have no Python wrapper: ``poll_walk``, a poll
section's walk of one circuit (:class:`repro.core.ops.PollWalk`) as far
as its memo reaches — the messages queued for the memoized descriptor
while the circuit's ``conn_epoch`` and generation are the memo's, else a
refusal — and ``conn_holds``, whether a section's connection memo
(:class:`repro.core.ops.RecvSection`, :class:`~repro.core.ops.SendSection`)
still holds by the same rule.  The C section runner (``sections.c``
beside this module, which the engine's loop and ``runtime/sync.c``'s
drive both include) is bound to their addresses and to those of
``sec_claim``, ``sec_complete``, ``sec_free``, ``chain_drain``,
``sec_alloc``, ``chain_fill``, ``sec_link`` and the five ring kernels
(:attr:`Kernels.addresses`): it runs a poll walk and the stages of
either transport's receive and send itself, and the Python bodies of
those are their references.

The C source is ``chains.c``.  A kernel that refuses its input writes
nothing and hands the same arguments to the Python reference
(:data:`PYTHON`: the list kernels of :mod:`repro.core.freelist` and the
sections below), which raises the error every reader of the segment
knows, waits or does the work: a chain kernel refuses a chain it will
not follow, a section kernel a dry pool, a record or chain that leaves
the region or does not end and an overflowing receive, a ring kernel a
record outside the region, a reader bit of 32 or more and an
overflowing receive.  (The free-list claim and the ring take and claim
answer "nothing to take", the ring fill "full", themselves — writing
nothing, but for the FCFS ring claim's cursor, stored where its scan
stopped as the reference stores it: the caller waits.)  The C functions keep no state, so
threads call them with the interpreter lock released.

At first import gcc (:data:`CC`, with :data:`CFLAGS`) builds
``chains.c`` as a cffi extension into a file beside this module, named
by the hash of what goes into it (source, declarations, cffi backend,
flags; the file suffix names the interpreter), and
later imports load it.  The build compiles in a temporary directory
beside the target and renames the library into place, so processes
importing at once each load a whole one.  :func:`build_extension` is
that build for any extension kept beside its module: the engine's step
interpreter (``repro/machine/engine.c``) is built, named and cached by
it too.
Without cffi, without a compiler, or in a directory it may not write,
the build fails and the Python kernels run: :data:`ACTIVE` is the set in
use and ``ACTIVE.name`` says which — what the platform allowed, not a
setting.
"""

from __future__ import annotations

import contextlib
import importlib.machinery
import importlib.util
import os
import zlib
from pathlib import Path

from .errors import BufferOverflowError, RegionFormatError
from .freelist import (
    block_record,
    drain_chain,
    fill_chain,
    splice_chain,
    walk_chain,
)
from .layout import HDR
from .protocol import NIL, SLOT_BITS, MsgFlags, Protocol
from .region import U32_MASK as _M32, U64_MASK as _M64
from .structs import (
    LNVC,
    MSG,
    RECV,
    RING,
    RSLOT,
    RSLOT_DATA_OFF,
    RSLOT_PENDING_OFF,
    RS_FCFS_AVAILABLE,
    RS_FCFS_TAKEN,
    RS_RETIRED,
)

__all__ = ["Kernels", "PYTHON", "C", "ACTIVE", "build_extension"]

#: The compiler the build runs, and the flags it compiles with.
CC = "gcc"
CFLAGS = ("-O2",)

_HERE = Path(__file__).parent
_SOURCE = _HERE / "chains.c"
#: The section runner the engine's and the sync's extensions include: its
#: bytes go into both libraries' hashes.
SECTIONS = _HERE / "sections.c"
_CDEF = """
uint64_t chain_pop(char *, uint64_t, uint64_t, uint64_t);
int64_t chain_last(char *, uint64_t, uint64_t, uint64_t);
int64_t chain_fill(char *, uint64_t, uint64_t, uint64_t, const char *,
                   uint64_t, uint64_t);
int64_t chain_drain(char *, uint64_t, uint64_t, uint64_t, uint64_t,
                    uint64_t, char *);
typedef struct { uint32_t seqno, depth, rsteps, ok; } link_t;
typedef struct {
    uint32_t msg, first, nblk, length, seqno;
    _Bool fcfs;
    int got;
} claim_t;
typedef struct {
    uint64_t nblk, nbytes;
    uint32_t head, n, depth, first, last, ok;
} reap_t;
uint64_t sec_alloc(char *, uint64_t, uint64_t, uint64_t);
link_t sec_link(char *, uint64_t, uint64_t, uint64_t, uint64_t, uint64_t,
                uint64_t, uint64_t, int, uint64_t, uint64_t);
claim_t sec_claim(char *, uint64_t, uint64_t, uint64_t, int64_t);
reap_t sec_complete(char *, uint64_t, uint64_t, uint64_t, uint64_t,
                    uint64_t, uint64_t);
int64_t sec_free(char *, uint64_t, uint64_t, uint64_t, uint64_t, uint64_t,
                 uint64_t, uint64_t);
typedef struct { uint32_t seq, sl, seqno, depth; int ok; } rfill_t;
typedef struct { uint32_t sl, length, seqno, unread, idx; int got; } rtake_t;
rfill_t ring_fill(char *, uint64_t, uint64_t, uint64_t, uint64_t, uint64_t,
                  uint64_t, uint64_t, uint64_t, const char *, uint64_t);
int64_t ring_commit(char *, uint64_t, uint64_t, uint64_t, uint64_t);
rtake_t ring_take(char *, uint64_t, uint64_t, uint64_t, uint64_t, uint64_t,
                  uint64_t, uint64_t, uint64_t, uint64_t, uint64_t, int64_t);
rtake_t ring_claim(char *, uint64_t, uint64_t, uint64_t, uint64_t, uint64_t,
                   uint64_t, uint64_t, uint64_t, int64_t);
int64_t ring_complete(char *, uint64_t, uint64_t, uint64_t, uint64_t,
                      uint64_t, uint64_t, uint64_t);
int64_t poll_walk(char *, uint64_t, uint64_t, uint64_t, uint64_t, uint64_t,
                  int);
int64_t conn_holds(char *, uint64_t, uint64_t, uint64_t, uint64_t);
"""
_REFUSED = (1 << 64) - 1  # chain_pop's "not n records", sec_alloc's refusal
_NO_LIMIT = (1 << 63) - 1  # sec_claim's max_len for "any length"

# The words the lock sections touch (core/ops.py names the runs).
_L_NMSGS = LNVC.offsets["nmsgs"]
_L_FCFS_HEAD = LNVC.offsets["fcfs_head"]
_L_SEQ = LNVC.offsets["seq"]
_L_NRECVS = LNVC.offsets["nrecvs"]
_L_BYTES_SENT = LNVC.offsets["bytes_sent"]
_M_NEXT_MSG = MSG.offsets["next_msg"]
_M_BCAST_PENDING = MSG.offsets["bcast_pending"]
_M_BUSY = MSG.offsets["busy"]
_R_HEAD = RECV.offsets["head"]
_R_NREADS = RECV.offsets["nreads"]
_H_FREE_MSG = HDR.u32["free_msg"]
_H_FREE_BLK = HDR.u32["free_blk"]
_H_HWM_LIVE_BYTES = HDR.u64["hwm_live_bytes"]
_P_FCFS = int(Protocol.FCFS)
_F_RETIRED = int(MsgFlags.RETIRED)
_F_FCFS_TAKEN = int(MsgFlags.FCFS_TAKEN)
_F_FCFS_EXPECTED = int(MsgFlags.FCFS_EXPECTED)
_F_HAD_RECEIVERS = int(MsgFlags.HAD_RECEIVERS)
# ... and the ring sections (core/transport.py names the runs).
_L_RING = LNVC.offsets["ring"]
_RG_NEXT_WRITE = RING.offsets["next_write"]
_RG_FCFS_NEXT = RING.offsets["fcfs_next"]
_RS_SEQ = RSLOT.offsets["seq"]
_RS_LENGTH = RSLOT.offsets["length"]
_RS_STATE = RSLOT.offsets["state"]
_SLOT_MASK = (1 << SLOT_BITS) - 1

#: The C functions the C section runner calls itself, in the order the
#: engine's ``bind`` and the sync's ``classes`` take their addresses
#: (:attr:`Kernels.addresses`).
ENGINE_KERNELS = ("poll_walk", "conn_holds", "sec_claim", "sec_complete",
                  "sec_free", "chain_drain", "sec_alloc", "chain_fill",
                  "sec_link", "ring_fill", "ring_commit", "ring_take",
                  "ring_claim", "ring_complete")


class Kernels:
    """One implementation of the four chain kernels, the five free-list
    section kernels and the five ring kernels (see the module
    docstring), and ``addresses``: those of the C functions the C
    section runner calls (:data:`ENGINE_KERNELS`), ``None`` in the
    Python set."""

    __slots__ = ("name", "pop", "fill", "drain", "last",
                 "alloc", "link", "claim", "complete", "free",
                 "ring_fill", "ring_commit", "ring_take", "ring_claim",
                 "ring_complete", "addresses")

    def __init__(self, name: str, pop, fill, drain, last,
                 alloc, link, claim, complete, free,
                 ring_fill, ring_commit, ring_take, ring_claim,
                 ring_complete, addresses: tuple | None = None) -> None:
        self.name = name
        self.pop = pop
        self.fill = fill
        self.drain = drain
        self.last = last
        self.alloc = alloc
        self.link = link
        self.claim = claim
        self.complete = complete
        self.free = free
        self.ring_fill = ring_fill
        self.ring_commit = ring_commit
        self.ring_take = ring_take
        self.ring_claim = ring_claim
        self.ring_complete = ring_complete
        self.addresses = addresses

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Kernels({self.name!r})"


# ---------------------------------------------------------------------------
# the Python reference: the list kernels, reduced to a chain's ends
# ---------------------------------------------------------------------------


def _py_pop(region, first: int, n: int):
    blocks, nxt = region.follow(first, n)
    if len(blocks) < n:
        return None
    return (blocks[-1] if blocks else NIL), nxt


def _py_fill(region, first: int, n: int, data, bs: int) -> None:
    fill_chain(region, region.follow(first, n)[0], data, bs)


def _py_drain(region, first: int, n: int, length: int, bs: int):
    blocks, payload = drain_chain(region, first, n, length, bs,
                                  region.reader(block_record(bs)))
    return (blocks[-1] if blocks else NIL), payload


def _py_last(region, first: int, n: int) -> int:
    blocks = walk_chain(region, first, n)
    return blocks[-1] if blocks else NIL


# ---------------------------------------------------------------------------
# the Python reference: the lock sections
# ---------------------------------------------------------------------------
#
# Each reads a record once and stores each run it changed once, through
# the view's bound accessors (``view._rd_<run>`` / ``view._wr_<run>``,
# core/ops.py's READS / STORES).  None yields: the caller holds the lock
# each names and yields the effects around it.


def _alloc_message(view, nblk: int, length: int) -> tuple[int, int]:
    """``message_send``'s allocator section (``ALLOC_LOCK``): a header
    and ``nblk`` blocks for a ``length``-byte message off the free lists,
    the pool counts and their high-water marks.  ``(header, first
    block)``; ``(NIL, dry)`` when the pool whose head word is at ``dry``
    ran out, having stored nothing."""
    r = view.region
    hdr, free_blk, live_msgs, live_blk, live = view._rd_pool(_H_FREE_MSG)
    if hdr == NIL:
        return NIL, _H_FREE_MSG
    first = free_blk
    popped = _py_pop(r, first, nblk)
    if popped is None:
        return NIL, _H_FREE_BLK
    free_blk = popped[1]
    live_msgs = (live_msgs + 1) & _M32
    live_blk = (live_blk + nblk) & _M32
    live = (live + length) & _M32
    view._wr_pool(_H_FREE_MSG, r.u32(hdr), free_blk, live_msgs, live_blk, live)
    hwm_bytes, hwm_msgs = view._rd_hwm(_H_HWM_LIVE_BYTES)
    if live > hwm_bytes or live_msgs > hwm_msgs:
        view._wr_hwm(_H_HWM_LIVE_BYTES, max(live, hwm_bytes),
                     max(live_msgs, hwm_msgs))
    return hdr, first


def _link_tail(view, base: int, hdr: int, pid: int, length: int, first: int,
               nblk: int, stale: tuple | None = None) -> tuple[int, int, int]:
    """``message_send``'s link section (the circuit lock of the LNVC at
    ``base``): fill the header ``hdr`` for the chain of ``nblk`` blocks
    from ``first``, link it at the FIFO tail as the circuit's next
    message, point every caught-up BROADCAST receiver at it and count
    its bytes sent.  ``(sequence number, queue depth, receive
    descriptors walked)``.

    ``stale`` is the seam of :func:`repro.check.faults.unlocked_send`: a
    ``(seq, fifo_tail)`` pair read in an *earlier* section, used in
    place of the fresh one — which orphans a message, the bug that fault
    plants on purpose.
    """
    set_u32 = view.region.set_u32
    (nmsgs, fifo_head, tail, fcfs_head, _, desc, _, n_fcfs, n_bcast,
     seqno, hwm) = view._rd_queue(base + _L_NMSGS)
    if stale is not None:
        seqno, tail = stale
    flags = 0
    if n_fcfs:
        flags |= _F_FCFS_EXPECTED
    if n_fcfs or n_bcast:
        flags |= _F_HAD_RECEIVERS
    view._wr_msg(hdr, length, nblk, first if nblk else NIL, NIL,
                 n_bcast, 0, flags, seqno, pid & _M32)
    if tail == NIL:
        fifo_head = hdr
    else:
        set_u32(tail + _M_NEXT_MSG, hdr)
    depth = (nmsgs + 1) & _M32
    view._wr_fifo(base + _L_NMSGS, depth, fifo_head, hdr,
                  hdr if fcfs_head == NIL else fcfs_head)
    view._wr_seq_hwm(base + _L_SEQ, (seqno + 1) & _M32,
                     depth if depth > hwm else hwm)
    # Point every caught-up BROADCAST receiver at the new message.
    rsteps = 0
    rd_recv = view._rd_recv
    while desc != NIL:
        rsteps += 1
        _, proto, head, nxt, _ = rd_recv(desc)
        if proto != _P_FCFS and head == NIL:
            set_u32(desc + _R_HEAD, hdr)
        desc = nxt
    (sent,) = view._rd_sent(base + _L_BYTES_SENT)
    view._wr_sent(base + _L_BYTES_SENT, (sent + length) & _M64)
    return seqno, depth, rsteps


def _first_untaken(view, msg: int) -> int:
    """First message at or after ``msg`` not yet FCFS-taken (or NIL)."""
    rd_links = view._rd_links
    while msg != NIL:
        nxt, _, _, flags = rd_links(msg + _M_NEXT_MSG)
        if not flags & _F_FCFS_TAKEN:
            break
        msg = nxt
    return msg


def _claim_next(view, base: int, desc: int, max_len: int | None):
    """``message_receive``'s claim section (the circuit lock of the LNVC
    at ``base``): the next message for the receive descriptor ``desc``,
    pinned busy and counted as read; for FCFS, marked taken and the
    shared FCFS head moved past it.  ``(header, first block, nblk,
    length, sequence number, is FCFS)``, or ``None`` when there is none
    yet.  A message longer than ``max_len`` raises
    :class:`BufferOverflowError`, claimed by nobody."""
    u32 = view.region.u32
    set_u32 = view.region.set_u32
    # The descriptor is read on every call: the caller may have slept,
    # and a neighbour closing may have relinked ``rnext``.
    _, proto, msg, rnext, nreads = view._rd_recv(desc)
    is_fcfs = proto == _P_FCFS
    if is_fcfs:
        msg = u32(base + _L_FCFS_HEAD)
    if msg == NIL:
        return None
    (length, nblk, first, next_msg, pending, busy, flags, seqno,
     _) = view._rd_msg(msg)
    if max_len is not None and length > max_len:
        raise BufferOverflowError(
            f"next message is {length} bytes, buffer holds {max_len}")
    busy = (busy + 1) & _M32
    nreads = (nreads + 1) & _M32
    if is_fcfs:
        view._wr_pins(msg + _M_BCAST_PENDING, pending, busy,
                      flags | _F_FCFS_TAKEN)
        set_u32(base + _L_FCFS_HEAD, _first_untaken(view, next_msg))
        set_u32(desc + _R_NREADS, nreads)
    else:
        set_u32(msg + _M_BUSY, busy)
        view._wr_cursor(desc + _R_HEAD, next_msg, rnext, nreads)
    return msg, first, nblk, length, seqno, is_fcfs


def _retire_check(view, msg: int, unpin: int = 0, unread: int = 0) -> bool:
    """Drop ``unpin`` busy pins and ``unread`` owed broadcast reads from
    one message header, then apply the retirement rule to it.

    A message retires (becomes reclaimable) when no broadcast receiver
    still owes it a read, nobody is copying out of it, and its FCFS
    obligation is discharged: either an FCFS receiver took it, or it never
    had an FCFS obligation *and* some receiver existed at enqueue time.
    Messages enqueued into an empty conversation are preserved for a
    future FCFS joiner (paper §3.2).  Caller holds the circuit lock.
    """
    pending, busy, flags = view._rd_pins(msg + _M_BCAST_PENDING)
    if flags & _F_RETIRED and not (unpin or unread):
        return True
    pending = (pending - unread) & _M32
    busy = (busy - unpin) & _M32
    retire = not (flags & _F_RETIRED or pending or busy) and bool(
        flags & _F_FCFS_TAKEN
        or (flags & _F_HAD_RECEIVERS and not flags & _F_FCFS_EXPECTED))
    if retire:
        flags |= _F_RETIRED
    if retire or unpin or unread:
        view._wr_pins(msg + _M_BCAST_PENDING, pending, busy, flags)
    return bool(flags & _F_RETIRED)


def _bad_chain(msg: int, exc: RegionFormatError) -> RegionFormatError:
    """``exc`` from a chain kernel, naming the message header it is under."""
    return RegionFormatError(f"message header {msg}: {exc}")


def _msg_chain(view, msg: int, first: int, nblocks: int) -> tuple:
    """The chain ``(first, last, nblocks)`` of the message at ``msg``,
    whose header says it is ``nblocks`` long from ``first``; the walk to
    its last block is bounded by that count."""
    try:
        return first, ACTIVE.last(view.region, first, nblocks), nblocks
    except RegionFormatError as exc:
        raise _bad_chain(msg, exc) from None


def _splice_chains(view, chains) -> tuple[int, int, int]:
    """Link the walked chains ``(first, last, n)`` into one, newest
    first — each one's last block to the first block of the one before
    — and return it, ``(first, last, blocks)``: what
    :func:`_free_chain` returns to the block list with one more store.

    The chains belong to messages already unlinked from every list, so
    their blocks are private: the stores need no allocator lock, and
    the list they join ends up as block-at-a-time frees would leave it.
    """
    set_u32 = view.region.set_u32
    first = last = NIL
    nblk = 0
    for head, tail, n in chains:
        if not n:
            continue
        if first == NIL:
            last = tail
        else:
            set_u32(tail, first)
        first = head
        nblk += n
    return first, last, nblk


def _reap_head(view, base: int, drained: int = NIL, drained_last: int = NIL):
    """Unlink the retired messages at the FIFO head of the circuit at
    ``base`` and splice their chains (:func:`_splice_chains`): ``None``
    when the head has not retired, else ``(head, n, depth, first, last,
    blocks, bytes)`` — the unlinked run of ``n`` headers from ``head``
    (still linked through ``next_msg``), the queue depth they leave, and
    the chain and payload bytes :func:`_free_chain` returns.

    Retirement marks messages lazily; physical reclamation happens here,
    only from the head, so the singly linked FIFO never needs a backward
    unlink — our answer to the paper's "particularly vexing" problem.
    Caller holds the circuit lock.  Every doomed chain is walked, and a
    corrupt one raises, before anything is stored.  ``drained`` /
    ``drained_last`` name the message the calling receive has just
    copied out of and the last block of the chain it walked doing so —
    it was busy-pinned from that walk until this section, so its chain
    is not walked again.
    """
    nmsgs, head, tail, fcfs = view._rd_fifo(base + _L_NMSGS)
    rd_msg = view._rd_msg
    chains: list[tuple] = []
    nbytes = 0
    fcfs_doomed = False
    msg = head
    while msg != NIL:
        length, nblocks, first, nxt, _, _, flags, _, _ = rd_msg(msg)
        if not flags & _F_RETIRED:
            break
        chains.append((first, drained_last, nblocks) if msg == drained
                      else _msg_chain(view, msg, first, nblocks))
        fcfs_doomed |= msg == fcfs
        nbytes += length
        msg = nxt
    if not chains:
        return None
    depth = (nmsgs - len(chains)) & _M32
    # The shared FCFS head can never point *behind* the new physical head:
    # if it pointed at a reaped message, advance it to the first survivor
    # that is not FCFS-taken.
    if fcfs_doomed:
        fcfs = _first_untaken(view, msg)
    first, last, nblk = _splice_chains(view, chains)
    view._wr_fifo(base + _L_NMSGS, depth, msg, NIL if msg == NIL else tail,
                  fcfs)
    return head, len(chains), depth, first, last, nblk, nbytes


def _complete_receive(view, base: int, msg: int, unread: int, last: int,
                      length: int):
    """``message_receive``'s completion section (the circuit lock of the
    LNVC at ``base``), for the ``length``-byte message ``msg`` it
    drained, whose chain ends at ``last``: drop its busy pin (and
    ``unread``, a BROADCAST receive's owed read), retire it if it is
    done with, unlink and splice what retired at the FIFO head
    (:func:`_reap_head`, whose result it returns) and count the
    receive.  A corrupt chain raises :class:`RegionFormatError` once the
    pin is dropped, before anything else is stored."""
    _retire_check(view, msg, 1, unread)
    reap = _reap_head(view, base, msg, last)
    nrecvs, sent, received = view._rd_traffic(base + _L_NRECVS)
    view._wr_traffic(base + _L_NRECVS, (nrecvs + 1) & _M32, sent,
                     (received + length) & _M64)
    return reap


def _free_chain(view, head: int, n: int, first: int, last: int, nblk: int,
                nbytes: int) -> None:
    """Return ``n`` message headers — ``head`` and those ``next_msg``
    links to — and the chain ``first`` .. ``last`` of ``nblk`` blocks,
    ``nbytes`` of payload in all, to the free lists (``ALLOC_LOCK``).

    The chain goes back whole, with one store (it is a walked one,
    spliced by :func:`_splice_chains` or a send's fresh pop); each
    header is pushed in turn.  The host pays per header; the callers
    still charge ``nblk * blk_free``, what the modelled machine's
    block-by-block free costs.
    """
    r = view.region
    u32 = r.u32
    set_u32 = r.set_u32
    free_msg, free_blk, live_msgs, live_blocks, live_bytes = view._rd_pool(
        _H_FREE_MSG)
    if nblk:
        free_blk = splice_chain(r, free_blk, first, last)
    msg = head
    for _ in range(n):
        nxt = u32(msg + _M_NEXT_MSG)
        set_u32(msg, free_msg)
        free_msg, msg = msg, nxt
    view._wr_pool(_H_FREE_MSG, free_msg, free_blk, (live_msgs - n) & _M32,
                  (live_blocks - nblk) & _M32, (live_bytes - nbytes) & _M32)


# ---------------------------------------------------------------------------
# the Python reference: the ring sections
# ---------------------------------------------------------------------------
#
# The per-message work of core/transport.py's generators, from one effect
# they yield to the next.  Like the free-list sections, each reads a
# record once and stores each run it changed once, and none yields.


def _overflow(length: int, max_len: int) -> BufferOverflowError:
    return BufferOverflowError(
        f"next message is {length} bytes, buffer holds {max_len}")


def _ring_retire_check(view, base: int, sl: int, unpin: int = 0,
                       unread: int = 0) -> bool:
    """Drop ``unpin`` busy pins and the pending bits ``unread`` from the
    slot at ``sl``, then apply the retirement rule to it; True if it
    retires (now or earlier).

    Mirrors :func:`_retire_check`: a slot retires when its pending
    reader bitmap is empty, nobody is copying out of it, and its FCFS
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


def _ring_fill(view, base: int, pid: int, data: bytes):
    """``message_send``'s section over a ring (the circuit lock of the
    LNVC at ``base``) up to its commit word: claim the next message
    index, count the message in — depth, sequence number and its
    high-water mark, bytes sent — and fill its slot: the header words
    behind the commit word, the readers that owe it a read (a snapshot
    of the reader mask, exact under the lock), the payload.  ``(commit
    word value, slot, sequence number, depth)``, or ``None`` when the
    ring is full — the slot's previous message has not retired — having
    stored nothing."""
    r = view.region
    set_u32 = r.set_u32
    lay = view.layout
    ring = r.u32(base + _L_RING)
    w, _, pending = view._rd_ring(ring)
    sl = lay.ring_slot_off(lay.ring_index(ring), w % view.cfg.ring_slots)
    seq, _, _, _, st, _ = view._rd_rslot(sl)
    if seq and not st & RS_RETIRED:
        return None
    set_u32(ring + _RG_NEXT_WRITE, w + 1)
    (nmsgs, _, _, _, _, _, _, n_fcfs, n_bcast, seqno,
     hwm) = view._rd_queue(base + _L_NMSGS)
    # Receivers-at-enqueue snapshot, as in the free-list transport: an
    # FCFS obligation when FCFS receivers exist, and a hold-for-future-
    # joiner obligation when no receiver of either kind exists.
    state = RS_FCFS_AVAILABLE if n_fcfs or not (pending or n_bcast) else 0
    depth = (nmsgs + 1) & _M32
    set_u32(base + _L_NMSGS, depth)
    view._wr_seq_hwm(base + _L_SEQ, (seqno + 1) & _M32,
                     depth if depth > hwm else hwm)
    length = len(data)
    (sent,) = view._rd_sent(base + _L_BYTES_SENT)
    view._wr_sent(base + _L_BYTES_SENT, (sent + length) & _M64)
    view._wr_rslot_body(sl + _RS_LENGTH, length, seqno, pid & _M32, state, 0)
    set_u32(sl + RSLOT_PENDING_OFF, pending)
    r.write(sl + RSLOT_DATA_OFF, data)
    return (w + 1) & _M32, sl, seqno, depth


def _ring_commit(view, base: int, sl: int, seq: int) -> None:
    """The end of ``message_send``'s section over a ring: store ``seq``
    into the commit word of the slot at ``sl`` — last, after everything
    :func:`_ring_fill` stored — and retire the message at once if nobody
    is owed it (no pending reader, no FCFS obligation: the rule cannot
    fire for it otherwise)."""
    r = view.region
    r.set_u32(sl + _RS_SEQ, seq)
    if not (r.u32(sl + RSLOT_PENDING_OFF) or r.u32(sl + _RS_STATE)):
        _ring_retire_check(view, base, sl)


def _ring_cursor_take(view, ridx: int, bit: int, desc: int, nreads: int,
                      max_len: int | None):
    """The message at BROADCAST reader ``bit``'s cursor of ring ``ridx``,
    taken if committed — the cursor line and the receive descriptor
    ``desc``'s ``nreads`` (``nreads`` as read) moved: ``(slot, length,
    sequence number, pending bit owed, message index)``, or ``None``
    when the cursor's slot is not committed, having stored nothing.  A
    message longer than ``max_len`` raises
    :class:`BufferOverflowError`, taken by nobody.

    The reads follow the seqlock discipline, which the lock-free take
    (:func:`_ring_take`) needs: the sender stores the commit word last,
    so a slot whose ``seq`` matches the cursor is fully filled — which
    is why ``seq`` is a word read of its own, ahead of the record read
    of the fields it publishes.  The stores cover only what this reader
    owns: its cursor line and its descriptor's ``nreads`` word."""
    r = view.region
    lay = view.layout
    cur = lay.ring_cur_off(ridx, bit)
    idx, creads = view._rd_rcur(cur)
    sl = lay.ring_slot_off(ridx, idx % view.cfg.ring_slots)
    if r.u32(sl + _RS_SEQ) != idx + 1:
        return None
    length, seqno = view._rd_rslot_msg(sl + _RS_LENGTH)
    if max_len is not None and length > max_len:
        raise _overflow(length, max_len)
    view._wr_rcur(cur, (idx + 1) & _M32, (creads + 1) & _M32)
    r.set_u32(desc + _R_NREADS, nreads + 1)
    return sl, length, seqno, 1 << bit, idx


def _ring_take(view, base: int, pid: int, lnvc_id: int,
               max_len: int | None):
    """``message_receive``'s lock-free take over a ring (no lock held):
    valid only on a connection-cache hit (:meth:`MPFView.cached_recv
    <repro.core.ops.MPFView.cached_recv>`) for a BROADCAST descriptor,
    it takes the message at the reader's cursor if it is committed
    (:func:`_ring_cursor_take`).  As that, and ``None`` too when the
    cache does not vouch or the descriptor is FCFS."""
    desc = view.cached_recv(pid, lnvc_id)
    if desc == NIL:
        return None
    _, proto, bit, _, nreads = view._rd_recv(desc)
    if proto == _P_FCFS:
        return None
    ridx = view.layout.ring_index(view.region.u32(base + _L_RING))
    return _ring_cursor_take(view, ridx, bit, desc, nreads, max_len)


def _ring_claim(view, base: int, desc: int, max_len: int | None):
    """``message_receive``'s claim over a ring (the circuit lock of the
    LNVC at ``base``) for the receive descriptor ``desc``, and the
    receive counted: as :func:`_ring_take` (the pending bit owed is 0
    for an FCFS claim), or ``None`` when there is nothing to claim yet.

    An FCFS receiver advances the *shared* ``fcfs_next`` cursor over
    committed slots, skipping those with no FCFS obligation, stops at
    the first FCFS-available one — and where it stops without one, at
    the first uncommitted index, stores the cursor there (commits
    happen in claim order per slot, but a later index may commit before
    an earlier one: FCFS order waits).  It pins its slot with the
    ``busy`` count while copying, its claim leaving no pending bit to
    protect it.  A BROADCAST receiver takes the message at its own
    cursor (:func:`_ring_cursor_take`)."""
    r = view.region
    u32 = r.u32
    set_u32 = r.set_u32
    lay = view.layout
    nslots = view.cfg.ring_slots
    # ``nreads`` is this receiver's own word: no sleep stales it.
    _, proto, bit, _, nreads = view._rd_recv(desc)
    ring = u32(base + _L_RING)
    ridx = lay.ring_index(ring)
    if proto != _P_FCFS:
        return _ring_cursor_take(view, ridx, bit, desc, nreads, max_len)
    w, idx, _ = view._rd_ring(ring)
    found = False
    while idx < w:
        sl = lay.ring_slot_off(ridx, idx % nslots)
        seq, length, seqno, _, st, busy = view._rd_rslot(sl)
        if seq != idx + 1:
            break
        if st & RS_FCFS_AVAILABLE and not st & (RS_FCFS_TAKEN | RS_RETIRED):
            found = True
            break
        idx += 1
    if not found or max_len is not None and length > max_len:
        set_u32(ring + _RG_FCFS_NEXT, idx)
        if not found:
            return None
        raise _overflow(length, max_len)
    set_u32(ring + _RG_FCFS_NEXT, idx + 1)
    view._wr_rslot_pins(sl + _RS_STATE, st | RS_FCFS_TAKEN,
                        (busy + 1) & _M32)
    set_u32(desc + _R_NREADS, nreads + 1)
    return sl, length, seqno, 0, idx


def _ring_complete(view, base: int, sl: int, unread: int, idx: int,
                   length: int) -> bool:
    """``message_receive``'s completion over a ring (the circuit lock of
    the LNVC at ``base``), for the ``length``-byte message index ``idx``
    copied out of the slot at ``sl``: drop its pin — the pending bit
    ``unread``, or for an FCFS claim (``unread`` 0) a busy pin — apply
    the retirement rule and count the receive.  True when the slot
    retired and a blocked sender may be waiting for it.

    A blocked sender always parks on slot ``next_write % nslots`` (it
    waits *before* claiming), so a retire elsewhere in the ring cannot
    unblock anyone: waking only on a match spares the receiver herd a
    futile wakeup per message.  (``idx`` is the message the slot holds:
    nothing can reuse it before this section retires it.)"""
    u32 = view.region.u32
    nslots = view.cfg.ring_slots
    retired = _ring_retire_check(view, base, sl, 0 if unread else 1, unread)
    wake = retired and (
        idx % nslots == u32(u32(base + _L_RING) + _RG_NEXT_WRITE) % nslots)
    nrecvs, sent, received = view._rd_traffic(base + _L_NRECVS)
    view._wr_traffic(base + _L_NRECVS, (nrecvs + 1) & _M32, sent,
                     (received + length) & _M64)
    return wake


PYTHON = Kernels("python", _py_pop, _py_fill, _py_drain, _py_last,
                 _alloc_message, _link_tail, _claim_next, _complete_receive,
                 _free_chain, _ring_fill, _ring_commit, _ring_take,
                 _ring_claim, _ring_complete)


# ---------------------------------------------------------------------------
# the C kernels
# ---------------------------------------------------------------------------


def _compile(name: str, emit, target: Path, flags: tuple[str, ...],
             include: Path | None = None) -> None:
    """gcc the C file ``emit(path)`` writes into the extension at
    ``target``, searching ``include`` for what it includes (what only a
    cold cache pays for, imports included); ``OSError`` when it cannot be
    done."""
    import subprocess
    import sysconfig
    import tempfile

    with tempfile.TemporaryDirectory(prefix=name + ".",
                                     dir=target.parent) as tmp:
        c_file, so_file = Path(tmp, name + ".c"), Path(tmp, target.name)
        emit(c_file)
        try:
            subprocess.run(
                [CC, *flags, "-shared", "-fPIC",
                 *(("-I" + str(include),) if include is not None else ()),
                 "-I" + sysconfig.get_paths()["include"],
                 "-o", str(so_file), str(c_file)],
                check=True, capture_output=True, timeout=120)
        except subprocess.SubprocessError as exc:
            raise OSError(f"{CC} could not build {name}: {exc}") from exc
        os.replace(so_file, target)


def build_extension(where: Path, stem: str, source: bytes,
                    flags: tuple[str, ...], salt: tuple[bytes, ...] = (),
                    emit=None, module: str | None = None,
                    include: Path | None = None):
    """Build (or find) the extension ``<stem>_<hash>`` in ``where`` and
    import it; ``None`` when that cannot be done here.

    The hash is the CRC-32 of ``source``, ``salt`` (whatever else goes
    into the C file), the bytes of ``include`` and ``flags``; the file
    suffix names the interpreter.  ``emit(path)`` writes the C file to
    compile (``source`` itself by default), ``include`` is the one file
    it includes by bare name (compiled from its own directory, so the
    bytes hashed are the bytes built), and ``module`` is the name the
    library's init function carries when it is not the file's stem — a
    plain C-API extension's ``PyInit_<module>`` is fixed in its source.

    Once the library has imported, every other ``<stem>_<hash>`` library
    of this interpreter in ``where`` is deleted: one is built per source
    hash, and the others are what earlier sources left.  A library that
    another process deleted between this build and its import is built
    once more."""
    if include is not None:
        salt = (*salt, include.read_bytes())
    key = zlib.crc32(b"\0".join((source, *salt, " ".join(flags).encode())))
    name = f"{stem}_{key:08x}"
    suffix = importlib.machinery.EXTENSION_SUFFIXES[0]
    target = where / (name + suffix)
    for _ in range(2):
        try:
            if not target.exists():
                _compile(name, emit or (lambda path: path.write_bytes(source)),
                         target, flags,
                         None if include is None else include.parent)
            spec = importlib.util.spec_from_file_location(module or name,
                                                          target)
            lib = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(lib)
            break
        except ImportError:  # deleted before its import: build it again
            pass
        except OSError:
            return None
    else:
        return None
    for old in where.glob(stem + "_" + "[0-9a-f]" * 8 + suffix):
        if old != target:
            with contextlib.suppress(OSError):  # gone already, or not ours
                old.unlink()
    return lib


def _build(where: Path):
    """Build (or find) the cffi extension of ``chains.c`` in ``where`` and
    import it; ``None`` when that cannot be done here."""
    try:
        import _cffi_backend
        import cffi
    except ImportError:
        return None
    source = _SOURCE.read_bytes()

    def emit(path: Path) -> None:
        ffi = cffi.FFI()
        ffi.cdef(_CDEF)
        ffi.set_source(path.stem, source.decode(), compiler_verbose=False)
        ffi.emit_c_code(str(path))

    return build_extension(
        where, "_chains", source, CFLAGS,
        salt=(_CDEF.encode(), _cffi_backend.__version__.encode()), emit=emit)


def _c_kernels(module) -> Kernels:
    """The nine kernels over the extension ``module``."""
    lib, ffi = module.lib, module.ffi
    c_pop, c_last = lib.chain_pop, lib.chain_last
    c_fill, c_drain = lib.chain_fill, lib.chain_drain
    c_alloc, c_link, c_claim = lib.sec_alloc, lib.sec_link, lib.sec_claim
    c_complete, c_free = lib.sec_complete, lib.sec_free
    c_ring_fill, c_ring_commit = lib.ring_fill, lib.ring_commit
    c_ring_take, c_ring_claim = lib.ring_take, lib.ring_claim
    c_ring_complete = lib.ring_complete
    from_buffer, cast, release = ffi.from_buffer, ffi.cast, ffi.release

    def buf(region):
        """The region's buffer as the C side sees it: a ``char *`` to its
        first byte, made once, dropped by :meth:`SharedRegion.release`.
        The wrappers read ``region.cbuf`` and call this only on a miss.

        It points into an export of the object under the region's
        memoryview (``mv.obj``: the bytearray, mmap or shared memory),
        not of the memoryview.  A memoryview with an export outstanding
        cannot be released, and the garbage collector does not ask:
        when a region, its memoryview and an export of it were garbage
        in one cycle, clearing the memoryview first raised
        ``BufferError`` inside ``tp_clear`` and left the export pointing
        into freed memory — a crash.  A bytearray or an mmap refers to
        nothing, so it is in no cycle.  The region may be a slice of
        that object: the pointer is the export plus the slice's offset,
        which a short-lived export of the memoryview gives, and the
        export it points into is kept in :attr:`SharedRegion.cown`.
        Where that object exports nothing that covers the region, the
        memoryview's own export is taken."""
        cbuf = region.cbuf
        if cbuf is None:
            mv = region._mv
            try:
                owner = from_buffer(mv.obj, require_writable=True)
                whole = from_buffer(mv)
                start = cast("char *", whole) - cast("char *", owner)
                release(whole)
            except (TypeError, BufferError):
                start = -1
            if 0 <= start <= len(owner) - region.size:
                region.cown = owner
                cbuf = cast("char *", owner) + start
            else:
                cbuf = from_buffer(mv)
            region.cbuf = cbuf
        return cbuf

    def pop(region, first, n):
        if not n:
            return NIL, first
        p = region.cbuf or buf(region)
        got = c_pop(p, region.size, first, n)
        if got == _REFUSED:
            return _py_pop(region, first, n)
        return got >> 32, got & _M32

    def fill(region, first, n, data, bs):
        p = region.cbuf or buf(region)
        if c_fill(p, region.size, first, n, data, len(data), bs) < 0:
            _py_fill(region, first, n, data, bs)

    def drain(region, first, n, length, bs):
        if length > region.size:  # no chain carries it: not worth a buffer
            return _py_drain(region, first, n, length, bs)
        out = bytearray(length)
        p = region.cbuf or buf(region)
        last = c_drain(p, region.size, first, n, length, bs,
                       from_buffer(out))
        if last < 0:
            return _py_drain(region, first, n, length, bs)
        return last, bytes(out)

    def last(region, first, n):
        p = region.cbuf or buf(region)
        got = c_last(p, region.size, first, n)
        return _py_last(region, first, n) if got < 0 else got

    # The sections: a refusal hands the same arguments to the reference.

    def alloc(view, nblk, length):
        region = view.region
        p = region.cbuf or buf(region)
        got = c_alloc(p, region.size, nblk, length)
        if got == _REFUSED:
            return _alloc_message(view, nblk, length)
        return got >> 32, got & _M32

    def link(view, base, hdr, pid, length, first, nblk, stale=None):
        region = view.region
        p = region.cbuf or buf(region)
        if stale is None:
            got = c_link(p, region.size, base, hdr, pid & _M32,
                         length, first, nblk, 0, 0, 0)
        else:
            got = c_link(p, region.size, base, hdr, pid & _M32,
                         length, first, nblk, 1, *stale)
        if not got.ok:
            return _link_tail(view, base, hdr, pid, length, first, nblk, stale)
        return got.seqno, got.depth, got.rsteps

    def claim(view, base, desc, max_len):
        region = view.region
        p = region.cbuf or buf(region)
        got = c_claim(p, region.size, base, desc,
                      _NO_LIMIT if max_len is None or max_len > _NO_LIMIT
                      else max_len)
        if got.got <= 0:
            return None if got.got == 0 else _claim_next(view, base, desc,
                                                          max_len)
        return got.msg, got.first, got.nblk, got.length, got.seqno, got.fcfs

    def complete(view, base, msg, unread, last, length):
        region = view.region
        p = region.cbuf or buf(region)
        got = c_complete(p, region.size, base, msg, unread, last,
                         length)
        if not got.ok:
            return _complete_receive(view, base, msg, unread, last, length)
        if not got.n:
            return None
        return (got.head, got.n, got.depth, got.first, got.last, got.nblk,
                got.nbytes)

    def free(view, head, n, first, last, nblk, nbytes):
        region = view.region
        p = region.cbuf or buf(region)
        if c_free(p, region.size, head, n, first, last, nblk,
                  nbytes) < 0:
            _free_chain(view, head, n, first, last, nblk, nbytes)

    # The ring kernels: the layout's ring bases ride along with each call.

    def ring_fill(view, base, pid, data):
        region, lay = view.region, view.layout
        p = region.cbuf or buf(region)
        got = c_ring_fill(p, region.size, lay.ring_ctrl_base,
                          lay.ring_cur_base, lay.ring_data_base,
                          lay.ring_stride, view.cfg.ring_slots, base,
                          pid & _M32, data, len(data))
        if got.ok < 0:
            return _ring_fill(view, base, pid, data)
        return (got.seq, got.sl, got.seqno, got.depth) if got.ok else None

    def ring_commit(view, base, sl, seq):
        region = view.region
        p = region.cbuf or buf(region)
        if c_ring_commit(p, region.size, base, sl, seq) < 0:
            _ring_commit(view, base, sl, seq)

    def ring_take(view, base, pid, lnvc_id, max_len):
        # MPFView.cached_recv's rule, its segment half in C: an entry
        # (ops.Conn) vouches while the circuit is live in its generation
        # and its epoch word matches.
        gen = lnvc_id >> SLOT_BITS
        hit = view._recv_cache.get((lnvc_id & _SLOT_MASK, pid))
        if hit is None or hit.gen != gen:
            return None
        region, lay = view.region, view.layout
        p = region.cbuf or buf(region)
        got = c_ring_take(p, region.size, lay.ring_ctrl_base,
                          lay.ring_cur_base, lay.ring_data_base,
                          lay.ring_stride, view.cfg.ring_slots, base,
                          hit.desc, gen, hit.epoch,
                          _NO_LIMIT if max_len is None or max_len > _NO_LIMIT
                          else max_len)
        if got.got > 0:
            return got.sl, got.length, got.seqno, got.unread, got.idx
        if got.got < 0:
            return _ring_take(view, base, pid, lnvc_id, max_len)
        return None

    def ring_claim(view, base, desc, max_len):
        region, lay = view.region, view.layout
        p = region.cbuf or buf(region)
        got = c_ring_claim(p, region.size, lay.ring_ctrl_base,
                           lay.ring_cur_base, lay.ring_data_base,
                           lay.ring_stride, view.cfg.ring_slots, base, desc,
                           _NO_LIMIT if max_len is None or max_len > _NO_LIMIT
                           else max_len)
        if got.got < 0:
            return _ring_claim(view, base, desc, max_len)
        return ((got.sl, got.length, got.seqno, got.unread, got.idx)
                if got.got else None)

    def ring_complete(view, base, sl, unread, idx, length):
        region = view.region
        p = region.cbuf or buf(region)
        got = c_ring_complete(p, region.size, view.cfg.ring_slots,
                              base, sl, unread, idx, length)
        if got < 0:
            return _ring_complete(view, base, sl, unread, idx, length)
        return got == 1

    return Kernels("c", pop, fill, drain, last,
                   alloc, link, claim, complete, free,
                   ring_fill, ring_commit, ring_take, ring_claim,
                   ring_complete,
                   tuple(int(cast("uintptr_t", ffi.addressof(lib, name)))
                         for name in ENGINE_KERNELS))


def _select(where: Path = _HERE) -> Kernels:
    """The C kernels if they build (or are built) in ``where``, else
    :data:`PYTHON`."""
    module = _build(where)
    return PYTHON if module is None else _c_kernels(module)


#: The kernels the message path calls (``ACTIVE.name``: ``"c"`` or
#: ``"python"``), and the C set, ``None`` where it could not be built.
ACTIVE = _select()
C = ACTIVE if ACTIVE is not PYTHON else None
