"""The eight MPF primitives, written once as effect-yielding generators.

This module is the reproduction of the paper's contribution: the LNVC
(logical, named virtual circuit) message-passing primitives of §2,
implemented over the shared-segment data structures of §3.1 with the
close/retirement semantics of §3.2.

Every primitive is a generator over :mod:`repro.core.effects` objects.  A
runtime drives the generator, interpreting each effect (lock, unlock,
charge simulated time, sleep, wake); the generator's return value is the
primitive's result.  Data-structure mutation happens inline — the shared
region is visible to all runtimes identically — so the primitives contain
the *entire* algorithm and the runtimes contain only "shared memory
allocation and synchronization", the paper's definition of the system
dependent part.

Locking discipline (deadlock-free by global order):

1. ``GLOBAL_LOCK`` — only for open/close (name-table structure),
2. the per-circuit lock ``FIRST_LNVC_LOCK + slot``,
3. ``ALLOC_LOCK`` — free lists, always innermost.

Payload copies (block fill on send, block drain on receive) happen
*outside* the circuit lock.  This is the property that lets BROADCAST
receivers copy the same message concurrently and produces Figure 5's
near-linear scaling ("by allowing the receiver processes to copy messages
concurrently, higher throughputs can be achieved").
"""

from __future__ import annotations

import os
from typing import Sequence

from .costmodel import DEFAULT_COSTS, Costs
from .effects import (
    D_BAIL,
    D_JUMP,
    S_ACQ,
    S_CALL,
    S_CHARGE,
    S_MANY,
    S_NEXT,
    S_REL,
    Acquire,
    Charge,
    ChargeMany,
    FusedSection,
    OpGen,
    Release,
    WaitOn,
    Wake,
    _release_and_raise,
    charge,
)
from .errors import (
    BufferOverflowError,
    DuplicateConnectionError,
    MPFNameError,
    NoFreeLNVCError,
    NotConnectedError,
    OutOfDescriptorsError,
    OutOfMessageMemoryError,
    ProtocolViolationError,
    RegionFormatError,
    UnknownLNVCError,
)
from .freelist import (
    block_record,
    drain_chain,
    fill_chain,
    fl_alloc,
    fl_free,
    splice_chain,
    walk_chain,
)
from .layout import HDR, MPFConfig, SegmentLayout
from .protocol import (
    ALLOC_LOCK,
    FIRST_LNVC_LOCK,
    GLOBAL_LOCK,
    NAME_MAX,
    NIL,
    SLOT_BITS,
    MsgFlags,
    Protocol,
)
from .region import U32_MASK as _M32, U64_MASK as _M64, SharedRegion
from .structs import LNVC, MSG, RECV, SEND
from .transport import (
    RING_READS,
    RING_STORES,
    ring_attach,
    ring_check,
    ring_receive,
    ring_register_reader,
    ring_release,
    ring_send,
    ring_unregister_reader,
)
from .work import Work

__all__ = [
    "MPFView",
    "open_send",
    "open_receive",
    "close_send",
    "close_receive",
    "message_send",
    "message_receive",
    "check_receive",
    "poll_receive",
    "encode_lnvc_id",
    "decode_lnvc_id",
    "SLOT_BITS",
    "fusion_enabled",
    "set_fusion",
]

# Whether the *simulated* runtimes keep a poll wait inside the engine.
# The eight primitives are classic effect generators on every runtime;
# only :func:`poll_receive` yields a FusedSection, and only when
# ``view.fuse`` is set.  SimRuntime and the model checker set it from
# this flag, so the real runtimes (threads/procs/posix) never see one.
# ``MPF_FUSION=off`` is the debugging escape hatch: every poll round
# goes through the generator, which is byte-identical.
_fusion_default = os.environ.get("MPF_FUSION", "").lower() not in (
    "0", "off", "false", "no",
)


def fusion_enabled() -> bool:
    """Whether sim runtimes run poll waits in-engine (MPF_FUSION env knob)."""
    return _fusion_default


def set_fusion(on: bool) -> None:
    """Override the fusion default (tests and A/B comparisons)."""
    global _fusion_default
    _fusion_default = bool(on)

_SLOT_MASK = (1 << SLOT_BITS) - 1
# A 32-bit identifier's bits above the slot carry the generation.
_GEN_MASK = (1 << (32 - SLOT_BITS)) - 1

# Field offsets resolved once at import time.  The hot primitives
# (message_send / message_receive / check_receive and their helpers) run
# millions of times per figure sweep; going through ``Record.get``'s dict
# lookup and bound-method call was about a third of interpreter time in
# profiles.  The hot paths below read a lone field as ``r.u32(base +
# _L_X)`` — the same pointer-plus-field-offset arithmetic, with the offset
# folded to a constant exactly as a C compiler folds ``lnvc->fifo_head`` —
# and several fields of one record as one run (``READS`` / ``STORES``
# below).  Cold paths (open/close) keep the self-describing Record
# accessors.
_L_IN_USE = LNVC.offsets["in_use"]
_L_GEN = LNVC.offsets["gen"]
_L_NMSGS = LNVC.offsets["nmsgs"]
_L_FCFS_HEAD = LNVC.offsets["fcfs_head"]
_L_SEND_LIST = LNVC.offsets["send_list"]
_L_RECV_LIST = LNVC.offsets["recv_list"]
_L_SEQ = LNVC.offsets["seq"]
_L_CONN_EPOCH = LNVC.offsets["conn_epoch"]
_L_TRANSPORT = LNVC.offsets["transport"]
_L_NRECVS = LNVC.offsets["nrecvs"]
_L_BYTES_SENT = LNVC.offsets["bytes_sent"]
_L_BYTES_RECEIVED = LNVC.offsets["bytes_received"]

_S_PID = SEND.offsets["pid"]
_S_NEXT = SEND.offsets["next"]

_R_PID = RECV.offsets["pid"]
_R_HEAD = RECV.offsets["head"]
_R_NEXT = RECV.offsets["next"]
_R_NREADS = RECV.offsets["nreads"]

_M_NEXT_MSG = MSG.offsets["next_msg"]
_M_BCAST_PENDING = MSG.offsets["bcast_pending"]
_M_BUSY = MSG.offsets["busy"]

_H_FREE_MSG = HDR.u32["free_msg"]
_H_FREE_BLK = HDR.u32["free_blk"]
_H_HWM_LIVE_BYTES = HDR.u64["hwm_live_bytes"]

# Record-at-a-time access.  A lock section reads each record it needs
# once (one C call unpacks a whole run of adjacent fields), computes in
# locals, and stores each run it changed once.  ``READS`` may be padded
# picks; ``STORES`` are exact runs, and each covers only words whose
# every writer holds the lock the storing section holds — named, run by
# run, in tests/core/test_segment_identity.py.  A view binds both tables
# to its region once (``view._rd_<name>(off)``, ``view._wr_<name>(off,
# *values)``, ``off`` being the offset of the run's first field).
READS = {
    # what names a live circuit and dates its connection lists
    "ident": LNVC.pick("in_use", "gen", "conn_epoch"),
    "live": LNVC.run("in_use", "gen"),
    # what a poll round peeks at, under the circuit lock
    "peek": LNVC.pick("in_use", "gen", "fcfs_head", "conn_epoch"),
    "queue": LNVC.run("nmsgs", "hwm_nmsgs"),
    "fifo": LNVC.run("nmsgs", "fcfs_head"),
    "sent": LNVC.run("bytes_sent", "bytes_sent_hi"),
    "traffic": LNVC.run("nrecvs", "bytes_received_hi"),
    "recv": RECV.run("pid", "nreads"),
    "msg": MSG.run("length", "sender"),
    "links": MSG.run("next_msg", "flags"),
    "pins": MSG.run("bcast_pending", "flags"),
    "pool": HDR.run("free_msg", "live_bytes"),
    "hwm": HDR.run("hwm_live_bytes", "hwm_live_msgs"),
    **RING_READS,
}
STORES = {
    "fifo": READS["fifo"],
    "seq_hwm": LNVC.run("seq", "hwm_nmsgs"),
    "sent": READS["sent"],
    "traffic": READS["traffic"],
    "cursor": RECV.run("head", "nreads"),
    "msg": READS["msg"],
    "pins": READS["pins"],
    "pool": READS["pool"],
    "hwm": READS["hwm"],
    **RING_STORES,
}

# Enum values as plain ints: constructing MsgFlags/Protocol instances per
# field read is pure overhead when only bit tests are needed.
_P_FCFS = int(Protocol.FCFS)
_F_RETIRED = int(MsgFlags.RETIRED)
_F_FCFS_TAKEN = int(MsgFlags.FCFS_TAKEN)
_F_FCFS_EXPECTED = int(MsgFlags.FCFS_EXPECTED)
_F_HAD_RECEIVERS = int(MsgFlags.HAD_RECEIVERS)


def encode_lnvc_id(slot: int, gen: int) -> int:
    """Pack a table slot and its generation into a public identifier."""
    return (gen << SLOT_BITS) | slot


def decode_lnvc_id(lnvc_id: int) -> tuple[int, int]:
    """Unpack a public identifier into ``(slot, generation)``."""
    return lnvc_id & _SLOT_MASK, lnvc_id >> SLOT_BITS


class MPFView:
    """A formatted segment plus its layout and cost model.

    One view is shared by every process of a program (the paper's mapped
    region); it is immutable and carries no per-process state.

    The view also pre-builds the effect objects the hot primitives yield
    on every call: per-circuit ``Acquire``/``Release``/``Wake``/``WaitOn``
    and the fixed-cost ``Charge`` effects whose work never varies.
    Effects are frozen dataclasses, so one instance per lock/channel can
    be yielded forever instead of allocating a fresh object per call.
    Likewise the record accessors: one ``_rd_<run>`` / ``_wr_<run>``
    callable per entry of :data:`READS` / :data:`STORES`, and
    ``_rd_block`` over a whole message block of the configured size,
    bound to the region once.
    """

    __slots__ = (
        "region",
        "layout",
        "cfg",
        "costs",
        "_acq",
        "_rel",
        "_wake",
        "_waiton",
        "_alloc_acq",
        "_alloc_rel",
        "_send_fixed_work",
        "_send_fixed",
        "_recv_fixed",
        "_check_fixed_work",
        "_check_fixed",
        "_recv_retire",
        "_recv_wakeup",
        "_ring_send_fixed_work",
        "_ring_send_fixed",
        "_ring_recv_fixed",
        "_ring_claim",
        "_ring_cursor",
        "_ring_commit",
        "_ring_consume",
        "_send_cache",
        "_recv_cache",
        "probe",
        "fuse",
        "_fs_poll_cache",
        *(f"_rd_{name}" for name in READS),
        "_rd_block",
        *(f"_wr_{name}" for name in STORES),
    )

    def __init__(
        self,
        region: SharedRegion,
        layout: SegmentLayout,
        costs: Costs = DEFAULT_COSTS,
    ) -> None:
        self.region = region
        self.layout = layout
        self.cfg: MPFConfig = layout.cfg
        self.costs = costs
        n = self.cfg.max_lnvcs
        self._acq = tuple(Acquire(FIRST_LNVC_LOCK + s) for s in range(n))
        self._rel = tuple(Release(FIRST_LNVC_LOCK + s) for s in range(n))
        self._wake = tuple(Wake(s) for s in range(n))
        self._waiton = tuple(WaitOn(s, FIRST_LNVC_LOCK + s) for s in range(n))
        self._alloc_acq = Acquire(ALLOC_LOCK)
        self._alloc_rel = Release(ALLOC_LOCK)
        self._send_fixed_work = Work(instrs=costs.send_fixed, label="send-fixed")
        self._send_fixed = Charge(self._send_fixed_work)
        self._recv_fixed = Charge(Work(instrs=costs.recv_fixed, label="recv-fixed"))
        self._check_fixed_work = Work(instrs=costs.check_fixed, label="check-fixed")
        self._check_fixed = Charge(self._check_fixed_work)
        self._recv_retire = Charge(Work(instrs=costs.msg_retire, label="recv-retire"))
        self._recv_wakeup = Charge(
            Work(instrs=costs.waiter_wakeup, label="recv-wakeup")
        )
        # Ring transport fixed charges (see repro.core.transport).  The
        # claim/commit/consume charges each include one cacheline_xfer:
        # the shared control or header line is hot in another CPU's
        # cache whenever the circuit is actually contended.
        self._ring_send_fixed_work = Work(
            instrs=costs.ring_send_fixed, label="ring-send-fixed"
        )
        self._ring_send_fixed = Charge(self._ring_send_fixed_work)
        self._ring_recv_fixed = Charge(
            Work(instrs=costs.ring_recv_fixed, label="ring-recv-fixed")
        )
        self._ring_claim = Charge(
            Work(instrs=costs.ring_claim + costs.cacheline_xfer, label="ring-claim")
        )
        self._ring_cursor = Charge(
            Work(instrs=costs.ring_cursor + costs.cacheline_xfer,
                 label="ring-cursor")
        )
        self._ring_commit = Charge(
            Work(instrs=costs.ring_publish + costs.cacheline_xfer, label="ring-commit")
        )
        self._ring_consume = Charge(
            Work(instrs=costs.ring_consume + costs.cacheline_xfer, label="ring-consume")
        )
        for name, run in READS.items():
            setattr(self, f"_rd_{name}", region.reader(run))
        self._rd_block = region.reader(block_record(self.cfg.block_size))
        for name, run in STORES.items():
            setattr(self, f"_wr_{name}", region.writer(run))
        # Connection-descriptor lookup caches: (slot, pid) -> (desc_off,
        # steps, gen, conn_epoch).  The circuit's ``conn_epoch`` field is
        # bumped (under the circuit lock) on every send/recv list
        # mutation, and ``gen`` changes when the slot is recycled, so an
        # entry matching both is exactly what walking the list would find
        # — including the walk length that feeds the cost model.  The
        # region fields are shared, so the cache stays correct even when
        # other views (processes) reshape the lists.
        self._send_cache: dict = {}
        self._recv_cache: dict = {}
        # (pid, first slot) -> ((ids, backoff), section): the looping
        # sections of poll_receive, built once per polled set.
        self._fs_poll_cache: dict = {}
        #: The one observer slot: ``None``, or whatever a runtime's
        #: :meth:`repro.obs.Recorder.attach` put here.  Every observation
        #: instant of the message path tests this once and makes at most
        #: one plain call on it — never a new effect, so observation
        #: cannot perturb a simulated schedule (docs/observability.md,
        #: "Attaching observers").
        self.probe = None
        #: In-engine poll waits opt-in (sim engine only; see
        #: :func:`poll_receive`).  Off by default so real runtimes never
        #: see a :class:`~repro.core.effects.FusedSection`; SimRuntime
        #: and the model checker set it from :func:`fusion_enabled`.
        self.fuse = False

    # -- names -------------------------------------------------------------

    @staticmethod
    def encode_name(name: str) -> bytes:
        """Validate and UTF-8 encode an LNVC name."""
        if not isinstance(name, str) or not name:
            raise MPFNameError("LNVC name must be a non-empty string")
        data = name.encode("utf-8")
        if len(data) > NAME_MAX:
            raise MPFNameError(f"LNVC name exceeds {NAME_MAX} bytes")
        return data

    def read_name(self, slot: int) -> bytes:
        base = self.layout.lnvc_off(slot)
        n = LNVC.get(self.region, base, "name_len")
        return self.region.read(base + LNVC.tail_off, n)

    def write_name(self, slot: int, data: bytes) -> None:
        base = self.layout.lnvc_off(slot)
        LNVC.set(self.region, base, "name_len", len(data))
        self.region.write(base + LNVC.tail_off, data)

    # -- addressing ---------------------------------------------------------

    def lnvc_lock(self, slot: int) -> int:
        """Lock index guarding LNVC table slot ``slot``."""
        return FIRST_LNVC_LOCK + slot

    def slot_of(self, lnvc_id: int) -> int:
        """Table slot a public identifier names, live or not; raises when
        it lies outside the table.  Reads no shared state, so the hot
        primitives call it before their first effect."""
        slot = lnvc_id & _SLOT_MASK
        if slot >= self.cfg.max_lnvcs:
            raise UnknownLNVCError(f"lnvc id {lnvc_id}: no such slot")
        return slot

    def resolve(self, lnvc_id: int) -> int:
        """Map a public identifier to a live slot or raise.

        Caller must hold either the global lock or the slot's lock.
        """
        slot = self.slot_of(lnvc_id)
        base = self.layout.lnvc_off(slot)
        u32 = self.region.u32
        if not u32(base + _L_IN_USE):
            raise UnknownLNVCError(f"lnvc id {lnvc_id}: circuit deleted")
        if u32(base + _L_GEN) != lnvc_id >> SLOT_BITS:
            raise UnknownLNVCError(f"lnvc id {lnvc_id}: stale generation")
        return slot

    # -- connection lookup (caller holds the circuit lock) ------------------

    def recv_conn(self, pid: int, lnvc_id: int) -> tuple[int, int]:
        """``pid``'s receive descriptor on the live circuit ``lnvc_id``:
        ``(desc_off, steps)``, ``steps`` being the list-walk length the
        cost model charges (cached or walked, the same number).

        Raises :class:`UnknownLNVCError` for a deleted or recycled
        circuit and :class:`NotConnectedError` when ``pid`` holds no
        receive connection; ``lnvc_id`` must be inside the table
        (:meth:`slot_of`).
        """
        slot = lnvc_id & _SLOT_MASK
        gen = lnvc_id >> SLOT_BITS
        base = self.layout.lnvc_off(slot)
        in_use, g, epoch = self._rd_ident(base)
        if not in_use or g != gen:
            self.resolve(lnvc_id)  # raises with the precise message
        hit = self._recv_cache.get((slot, pid))
        if hit is not None and hit[2] == gen and hit[3] == epoch:
            return hit[0], hit[1]
        desc, _, steps = _find_recv(self, base, pid)
        if desc == NIL:
            raise NotConnectedError(f"pid {pid} holds no receive connection here")
        self._recv_cache[(slot, pid)] = (desc, steps, gen, epoch)
        return desc, steps

    def cached_recv(self, pid: int, lnvc_id: int) -> int:
        """``pid``'s receive descriptor if the cache still vouches for
        it, else ``NIL`` — never a list walk, so (unlike
        :meth:`recv_conn`) it is safe with no lock held.  The epoch is
        a word read of its own, ahead of the record read behind it: a
        lock-free reader may not assume one call sees one instant."""
        slot = lnvc_id & _SLOT_MASK
        gen = lnvc_id >> SLOT_BITS
        base = self.layout.lnvc_off(slot)
        hit = self._recv_cache.get((slot, pid))
        if hit is None or hit[2] != gen:
            return NIL
        if self.region.u32(base + _L_CONN_EPOCH) != hit[3]:
            return NIL
        in_use, g = self._rd_live(base)
        if not in_use or g != gen:
            return NIL
        return hit[0]

    def send_conn(self, pid: int, lnvc_id: int) -> int:
        """Walk length to ``pid``'s send descriptor on the live circuit
        ``lnvc_id``; the send-side twin of :meth:`recv_conn`."""
        slot = lnvc_id & _SLOT_MASK
        gen = lnvc_id >> SLOT_BITS
        base = self.layout.lnvc_off(slot)
        in_use, g, epoch = self._rd_ident(base)
        if not in_use or g != gen:
            self.resolve(lnvc_id)  # raises with the precise message
        hit = self._send_cache.get((slot, pid))
        if hit is not None and hit[2] == gen and hit[3] == epoch:
            return hit[1]
        sd, _, steps = _find_send(self, base, pid)
        if sd == NIL:
            raise NotConnectedError(f"pid {pid} holds no send connection here")
        self._send_cache[(slot, pid)] = (sd, steps, gen, epoch)
        return steps

    # -- table search (caller holds GLOBAL_LOCK) ----------------------------

    def find_by_name(self, data: bytes) -> tuple[int | None, int]:
        """Scan the table for a live circuit named ``data``.

        Returns ``(slot_or_None, slots_examined)``; the examination count
        feeds the cost model.
        """
        r, lay = self.region, self.layout
        steps = 0
        for slot in range(self.cfg.max_lnvcs):
            steps += 1
            base = lay.lnvc_off(slot)
            if LNVC.get(r, base, "in_use") and self.read_name(slot) == data:
                return slot, steps
        return None, steps

    def find_free_slot(self) -> tuple[int | None, int]:
        """Scan for an unused table slot; returns ``(slot_or_None, steps)``."""
        r, lay = self.region, self.layout
        steps = 0
        for slot in range(self.cfg.max_lnvcs):
            steps += 1
            if not LNVC.get(r, lay.lnvc_off(slot), "in_use"):
                return slot, steps
        return None, steps


# ---------------------------------------------------------------------------
# internal helpers (all expect the documented locks to be held)
# ---------------------------------------------------------------------------


def _find_send(view: MPFView, base: int, pid: int) -> tuple[int, int, int]:
    """Locate ``pid``'s send descriptor: ``(desc_off|NIL, prev_off|NIL, steps)``."""
    u32 = view.region.u32
    prev, off, steps = NIL, u32(base + _L_SEND_LIST), 0
    while off != NIL:
        steps += 1
        if u32(off + _S_PID) == pid:
            return off, prev, steps
        prev, off = off, u32(off + _S_NEXT)
    return NIL, NIL, steps


def _find_recv(view: MPFView, base: int, pid: int) -> tuple[int, int, int]:
    """Locate ``pid``'s receive descriptor: ``(desc_off|NIL, prev_off|NIL, steps)``."""
    u32 = view.region.u32
    prev, off, steps = NIL, u32(base + _L_RECV_LIST), 0
    while off != NIL:
        steps += 1
        if u32(off + _R_PID) == pid:
            return off, prev, steps
        prev, off = off, u32(off + _R_NEXT)
    return NIL, NIL, steps


def _conn_count(view: MPFView, base: int) -> int:
    r = view.region
    return (
        LNVC.get(r, base, "n_senders")
        + LNVC.get(r, base, "n_fcfs")
        + LNVC.get(r, base, "n_bcast")
    )


def _retire_check(view: MPFView, msg: int, unpin: int = 0, unread: int = 0) -> bool:
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


def _msg_chain(view: MPFView, msg: int, first: int, nblocks: int) -> list[int]:
    """Blocks of the message at ``msg``, whose header says its chain is
    ``nblocks`` long from ``first``; bounded by that count."""
    try:
        return walk_chain(view.region, first, nblocks)
    except RegionFormatError as exc:
        raise _bad_chain(msg, exc) from None


def _free_chain(view: MPFView, msgs: list, chains: list, nbytes: int) -> int:
    """Return the message headers ``msgs`` and their block ``chains``,
    ``nbytes`` of payload in all, to the free lists — in order, each
    chain ahead of its header, as one pass over the pool words.

    Each chain is a walked one (the drain's own bounded walk,
    :func:`_msg_chain`, or a send's fresh fill), so it goes back whole,
    with one store.  The host pays per chain; the callers still charge
    ``nblk * blk_free``, what the modelled machine's block-by-block free
    costs.  Caller holds ``ALLOC_LOCK``.  Returns the number of blocks
    freed.
    """
    r = view.region
    set_u32 = r.set_u32
    free_msg, free_blk, live_msgs, live_blocks, live_bytes = view._rd_pool(
        _H_FREE_MSG)
    nblk = 0
    for msg, chain in zip(msgs, chains):
        if chain:
            free_blk = splice_chain(r, free_blk, chain)
            nblk += len(chain)
        set_u32(msg, free_msg)
        free_msg = msg
    view._wr_pool(_H_FREE_MSG, free_msg, free_blk,
                  (live_msgs - len(msgs)) & _M32, (live_blocks - nblk) & _M32,
                  (live_bytes - nbytes) & _M32)
    return nblk


def _unsend(
    view: MPFView, lock: int, hdr: int, blocks: list, length: int, exc: Exception
) -> OpGen:
    """Undo a send refused at its link step, then raise ``exc``.

    The header and the chain are allocated and counted but not linked;
    the caller holds the circuit lock ``lock``.
    """
    yield Release(lock)
    yield Acquire(ALLOC_LOCK)
    _free_chain(view, [hdr], [blocks], length)
    yield from _release_and_raise([ALLOC_LOCK], exc)


def _reap_head(
    view: MPFView,
    base: int,
    held: tuple,
    drained: int = NIL,
    blocks: list | None = None,
) -> OpGen:
    """Unlink and free retired messages at the FIFO head.

    Retirement marks messages lazily; physical reclamation happens here,
    only from the head, so the singly linked FIFO never needs a backward
    unlink — our answer to the paper's "particularly vexing" problem.
    Caller holds the locks ``held`` (the circuit lock first).

    Every doomed chain is collected, read-only, before anything is
    unlinked and before the allocator lock is taken: a corrupt chain
    raises (``held`` released first) while the segment is still
    consistent, and the walks stay out of the allocator's critical
    section.  ``drained``/``blocks`` name the message the calling
    receive has just copied out of and the chain it walked doing so — it
    was busy-pinned from that walk until this lock section, so its chain
    is still ``blocks`` and is not walked again.
    """
    c = view.costs
    rd_msg = view._rd_msg
    doomed: list[int] = []
    chains: list[list[int]] = []
    freed: list[tuple] = []  # (sender, seqno, length) of each, for the probe
    nbytes = 0
    nmsgs, head, tail, fcfs = view._rd_fifo(base + _L_NMSGS)
    try:
        while head != NIL:
            length, nblocks, first, nxt, _, _, flags, seqno, sender = rd_msg(head)
            if not flags & _F_RETIRED:
                break
            doomed.append(head)
            chains.append(blocks if head == drained
                          else _msg_chain(view, head, first, nblocks))
            freed.append((sender, seqno, length))
            nbytes += length
            head = nxt
    except RegionFormatError as exc:
        yield from _release_and_raise(held, exc)
    if not doomed:
        return 0
    depth_after = (nmsgs - len(doomed)) & _M32
    # The shared FCFS head can never point *behind* the new physical head:
    # if it pointed at a reaped message, advance it to the first survivor
    # that is not FCFS-taken.
    if fcfs in doomed:
        fcfs = _first_untaken(view, head)
    view._wr_fifo(base + _L_NMSGS, depth_after, head,
                  NIL if head == NIL else tail, fcfs)
    probe = view.probe
    if probe is not None:
        probe.queue_depth(view.layout.lnvc_slot(base), depth_after)
    yield view._alloc_acq
    if probe is not None:
        probe.msgs_freed(
            view.layout.lnvc_slot(base), view.region.u32(base + _L_GEN),
            depth_after, freed)
    nblk = _free_chain(view, doomed, chains, nbytes)
    yield view._alloc_rel
    yield charge(len(doomed) * c.msg_discard + nblk * c.blk_free, "reap")
    return len(doomed)


def _first_untaken(view: MPFView, msg: int) -> int:
    """First message at or after ``msg`` not yet FCFS-taken (or NIL)."""
    rd_links = view._rd_links
    while msg != NIL:
        nxt, _, _, flags = rd_links(msg + _M_NEXT_MSG)
        if not flags & _F_FCFS_TAKEN:
            break
        msg = nxt
    return msg


def _delete_lnvc(view: MPFView, slot: int) -> OpGen:
    """Discard a circuit whose last connection just closed.

    Paper §2: "If this is the last process connected to lnvc_id, the LNVC
    is deleted and all unread messages are discarded."  Caller holds the
    global lock and the circuit lock.
    """
    r = view.region
    c = view.costs
    base = view.layout.lnvc_off(slot)
    msgs: list[int] = []
    chains: list[list[int]] = []
    freed: list[tuple] = []  # (sender, seqno, length) of each, for the probe
    nbytes = 0
    msg = LNVC.get(r, base, "fifo_head")
    try:
        while msg != NIL:
            length, nblocks, first, nxt, _, _, _, seqno, sender = view._rd_msg(msg)
            msgs.append(msg)
            chains.append(_msg_chain(view, msg, first, nblocks))
            freed.append((sender, seqno, length))
            nbytes += length
            msg = nxt
    except RegionFormatError as exc:
        yield from _release_and_raise((view.lnvc_lock(slot), GLOBAL_LOCK), exc)
    nblk = 0
    if msgs:
        yield Acquire(ALLOC_LOCK)
        probe = view.probe
        if probe is not None:
            probe.msgs_freed(slot, LNVC.get(r, base, "gen"), 0, freed,
                             discard=1)
        nblk = _free_chain(view, msgs, chains, nbytes)
        yield Release(ALLOC_LOCK)
    if LNVC.get(r, base, "transport"):
        # Ring circuits have no FIFO to discard (msgs is empty above);
        # unread slots die with the ring, which returns to the pool.
        yield from ring_release(view, base)
    # The circuit's lifetime traffic joins the header totals, which only
    # this fold writes — under GLOBAL_LOCK, whichever circuit is dying.
    HDR.add(r, "total_sends", LNVC.get(r, base, "seq"))
    HDR.add(r, "total_receives", LNVC.get(r, base, "nrecvs"))
    HDR.add(r, "total_bytes_sent", r.u64(base + _L_BYTES_SENT))
    HDR.add(r, "total_bytes_received", r.u64(base + _L_BYTES_RECEIVED))
    gen = LNVC.get(r, base, "gen")
    LNVC.clear(r, base)
    LNVC.set(r, base, "gen", (gen + 1) & _GEN_MASK)
    LNVC.set(r, base, "fifo_head", NIL)
    LNVC.set(r, base, "fifo_tail", NIL)
    LNVC.set(r, base, "fcfs_head", NIL)
    LNVC.set(r, base, "send_list", NIL)
    LNVC.set(r, base, "recv_list", NIL)
    HDR.add(r, "live_lnvcs", -1)
    yield charge(
        len(msgs) * c.msg_discard + nblk * c.blk_free + c.close_fixed // 2,
        "lnvc-delete")
    return len(msgs)


def _link_tail(view: MPFView, base: int, hdr: int, pid: int, length: int,
               blocks: list, stale: tuple | None = None) -> tuple[int, int, int]:
    """Fill the header ``hdr`` and link it at the FIFO tail of the
    circuit at ``base`` as its next message; returns ``(sequence number,
    queue depth, receive descriptors walked)``.

    Yield-free: the queue words are read here, once, and the caller
    holds the circuit lock.  ``stale`` is the seam of
    :func:`repro.check.faults.unlocked_send`: a ``(seq, fifo_tail)``
    pair read in an *earlier* section, used in place of the fresh one —
    which orphans a message, the bug that fault plants on purpose.
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
    view._wr_msg(hdr, length, len(blocks), blocks[0] if blocks else NIL, NIL,
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
    return seqno, depth, rsteps


def _open_common(view: MPFView, data: bytes) -> OpGen:
    """Find or create the circuit named ``data`` (pre-encoded); returns its slot.

    Caller holds the global lock.  On failure releases it and raises;
    on success tells the probe which circuit the slot is.
    """
    r = view.region
    c = view.costs
    slot, steps = view.find_by_name(data)
    if slot is None:
        slot, steps2 = view.find_free_slot()
        steps += steps2
        if slot is None:
            yield from _release_and_raise(
                [GLOBAL_LOCK],
                NoFreeLNVCError(f"all {view.cfg.max_lnvcs} LNVC slots in use"),
            )
        base = view.layout.lnvc_off(slot)
        gen = LNVC.get(r, base, "gen")
        LNVC.clear(r, base)
        LNVC.set(r, base, "gen", gen)
        LNVC.set(r, base, "in_use", 1)
        LNVC.set(r, base, "fifo_head", NIL)
        LNVC.set(r, base, "fifo_tail", NIL)
        LNVC.set(r, base, "fcfs_head", NIL)
        LNVC.set(r, base, "send_list", NIL)
        LNVC.set(r, base, "recv_list", NIL)
        view.write_name(slot, data)
        HDR.add(r, "live_lnvcs", 1)
        if view.cfg.transport_for(data.decode("utf-8")) == "ring":
            yield from ring_attach(view, slot, base)
    yield charge(c.open_fixed + steps * c.list_step, "open")
    probe = view.probe
    if probe is not None:
        probe.circuit_opened(slot, data.decode("utf-8"))
    return slot


# ---------------------------------------------------------------------------
# public primitives
# ---------------------------------------------------------------------------


def open_send(view: MPFView, pid: int, name: str) -> OpGen:
    """Establish a send connection for ``pid`` on the circuit ``name``.

    Creates the circuit if it does not exist.  Returns the circuit's
    public identifier for use with :func:`message_send` and
    :func:`close_send` (paper §2, ``open_send``).
    """
    r = view.region
    c = view.costs
    data = view.encode_name(name)  # validate before touching any lock
    yield Acquire(GLOBAL_LOCK)
    slot = yield from _open_common(view, data)
    base = view.layout.lnvc_off(slot)
    lock = view.lnvc_lock(slot)
    yield Acquire(lock)
    desc, _, steps = _find_send(view, base, pid)
    if desc != NIL:
        yield from _release_and_raise(
            [lock, GLOBAL_LOCK],
            DuplicateConnectionError(f"pid {pid} already sends on '{name}'"),
        )
    yield Acquire(ALLOC_LOCK)
    desc = fl_alloc(r, HDR.u32["free_send"])
    yield Release(ALLOC_LOCK)
    if desc == NIL:
        yield from _release_and_raise(
            [lock, GLOBAL_LOCK],
            OutOfDescriptorsError("send descriptor pool exhausted"),
        )
    SEND.set(r, desc, "pid", pid)
    SEND.set(r, desc, "next", LNVC.get(r, base, "send_list"))
    LNVC.set(r, base, "send_list", desc)
    LNVC.add(r, base, "n_senders", 1)
    LNVC.add(r, base, "conn_epoch", 1)
    yield charge(steps * c.list_step + 4 * c.list_step, "open_send")
    yield Release(lock)
    yield Release(GLOBAL_LOCK)
    return encode_lnvc_id(slot, LNVC.get(r, base, "gen"))


def open_receive(view: MPFView, pid: int, name: str, protocol: Protocol) -> OpGen:
    """Establish a receive connection with the given protocol.

    ``protocol`` is :data:`~repro.core.protocol.FCFS` or
    :data:`~repro.core.protocol.BROADCAST`.  A process may not hold both
    kinds on one circuit (paper §1 footnote 3).  A BROADCAST connection
    starts at the current FIFO tail: the receiver hears only messages sent
    after it joined the conversation.  Returns the circuit identifier.
    """
    proto = Protocol(protocol)
    r = view.region
    c = view.costs
    data = view.encode_name(name)  # validate before touching any lock
    yield Acquire(GLOBAL_LOCK)
    slot = yield from _open_common(view, data)
    base = view.layout.lnvc_off(slot)
    lock = view.lnvc_lock(slot)
    yield Acquire(lock)
    desc, _, steps = _find_recv(view, base, pid)
    if desc != NIL:
        have = Protocol(RECV.get(r, desc, "proto"))
        exc: Exception
        if have == proto:
            exc = DuplicateConnectionError(
                f"pid {pid} already receives ({have.name}) on '{name}'"
            )
        else:
            exc = ProtocolViolationError(
                f"pid {pid} cannot mix FCFS and BROADCAST on '{name}'"
            )
        yield from _release_and_raise([lock, GLOBAL_LOCK], exc)
    yield Acquire(ALLOC_LOCK)
    desc = fl_alloc(r, HDR.u32["free_recv"])
    yield Release(ALLOC_LOCK)
    if desc == NIL:
        yield from _release_and_raise(
            [lock, GLOBAL_LOCK],
            OutOfDescriptorsError("receive descriptor pool exhausted"),
        )
    RECV.set(r, desc, "pid", pid)
    RECV.set(r, desc, "proto", proto)
    RECV.set(r, desc, "head", NIL)
    RECV.set(r, desc, "nreads", 0)
    if proto is Protocol.BROADCAST and LNVC.get(r, base, "transport"):
        try:
            # Ring circuits: claim a reader-bitmap index and a tail
            # cursor instead of an individual FIFO head pointer.
            ring_register_reader(view, base, desc)
        except OutOfDescriptorsError as exc:
            yield Acquire(ALLOC_LOCK)
            fl_free(r, HDR.u32["free_recv"], desc)
            yield Release(ALLOC_LOCK)
            yield from _release_and_raise([lock, GLOBAL_LOCK], exc)
    RECV.set(r, desc, "next", LNVC.get(r, base, "recv_list"))
    LNVC.set(r, base, "recv_list", desc)
    LNVC.add(r, base, "n_fcfs" if proto is Protocol.FCFS else "n_bcast", 1)
    LNVC.add(r, base, "conn_epoch", 1)
    yield charge(steps * c.list_step + 4 * c.list_step, "open_receive")
    yield Release(lock)
    yield Release(GLOBAL_LOCK)
    return encode_lnvc_id(slot, LNVC.get(r, base, "gen"))


def close_send(view: MPFView, pid: int, lnvc_id: int) -> OpGen:
    """Remove ``pid``'s send connection from the circuit.

    If this was the last connection of any kind, the circuit is deleted
    and all unread messages are discarded (paper §2).
    """
    r = view.region
    c = view.costs
    yield Acquire(GLOBAL_LOCK)
    try:
        slot = view.resolve(lnvc_id)
    except UnknownLNVCError as exc:
        yield from _release_and_raise([GLOBAL_LOCK], exc)
    base = view.layout.lnvc_off(slot)
    lock = view.lnvc_lock(slot)
    yield Acquire(lock)
    desc, prev, steps = _find_send(view, base, pid)
    if desc == NIL:
        yield from _release_and_raise(
            [lock, GLOBAL_LOCK],
            NotConnectedError(f"pid {pid} holds no send connection here"),
        )
    nxt = SEND.get(r, desc, "next")
    if prev == NIL:
        LNVC.set(r, base, "send_list", nxt)
    else:
        SEND.set(r, prev, "next", nxt)
    LNVC.add(r, base, "conn_epoch", 1)
    yield Acquire(ALLOC_LOCK)
    fl_free(r, HDR.u32["free_send"], desc)
    yield Release(ALLOC_LOCK)
    LNVC.add(r, base, "n_senders", -1)
    yield charge(c.close_fixed + steps * c.list_step, "close_send")
    if _conn_count(view, base) == 0:
        yield from _delete_lnvc(view, slot)
    yield Release(lock)
    yield Release(GLOBAL_LOCK)
    # A receiver blocked on this circuit cannot be woken by future sends
    # if the circuit was just deleted; it stays blocked, exactly as the C
    # implementation would leave it.  (The simulator's deadlock detector
    # surfaces this programming error; see paper §3.2 on lost messages.)
    return None


def close_receive(view: MPFView, pid: int, lnvc_id: int) -> OpGen:
    """Remove ``pid``'s receive connection from the circuit.

    For a BROADCAST receiver, every message it had not yet read sheds one
    pending reader — the "particularly vexing" bookkeeping of paper §3.2,
    done here with per-message counters instead of head-pointer
    comparisons.  Deletes the circuit if this was the last connection.
    """
    r = view.region
    c = view.costs
    yield Acquire(GLOBAL_LOCK)
    try:
        slot = view.resolve(lnvc_id)
    except UnknownLNVCError as exc:
        yield from _release_and_raise([GLOBAL_LOCK], exc)
    base = view.layout.lnvc_off(slot)
    lock = view.lnvc_lock(slot)
    yield Acquire(lock)
    desc, prev, steps = _find_recv(view, base, pid)
    if desc == NIL:
        yield from _release_and_raise(
            [lock, GLOBAL_LOCK],
            NotConnectedError(f"pid {pid} holds no receive connection here"),
        )
    proto = Protocol(RECV.get(r, desc, "proto"))
    is_ring = bool(LNVC.get(r, base, "transport"))
    walked = 0
    ring_retired = False
    if proto is Protocol.BROADCAST:
        if is_ring:
            ring_retired = ring_unregister_reader(view, base, desc)
            walked = view.cfg.ring_slots
        else:
            msg = RECV.get(r, desc, "head")
            while msg != NIL:
                _retire_check(view, msg, unread=1)
                msg = MSG.get(r, msg, "next_msg")
                walked += 1
        LNVC.add(r, base, "n_bcast", -1)
    else:
        LNVC.add(r, base, "n_fcfs", -1)
    nxt = RECV.get(r, desc, "next")
    if prev == NIL:
        LNVC.set(r, base, "recv_list", nxt)
    else:
        RECV.set(r, prev, "next", nxt)
    LNVC.add(r, base, "conn_epoch", 1)
    yield Acquire(ALLOC_LOCK)
    fl_free(r, HDR.u32["free_recv"], desc)
    yield Release(ALLOC_LOCK)
    yield charge(c.close_fixed + (steps + walked) * c.list_step,
                 "close_receive")
    if not is_ring:
        yield from _reap_head(view, base, (lock, GLOBAL_LOCK))
    if _conn_count(view, base) == 0:
        yield from _delete_lnvc(view, slot)
    yield Release(lock)
    yield Release(GLOBAL_LOCK)
    if ring_retired:
        # Shedding this reader's pending bits retired at least one slot:
        # senders blocked on a full ring can now reuse it.
        yield view._wake[slot]
    return None


def message_send(
    view: MPFView,
    pid: int,
    lnvc_id: int,
    data: bytes,
    prelude: Work | None = None,
) -> OpGen:
    """Asynchronously send ``data`` to the circuit.

    The payload is copied into a chain of fixed-size message blocks
    allocated from the shared free list, then the chain is linked at the
    FIFO tail and waiting receivers are woken.  The sender continues as
    soon as the message is queued ("Message sending is asynchronous,
    allowing a process to proceed before the message reaches its
    destination(s)", paper §2).  Returns the message's sequence number on
    the circuit.

    ``prelude`` optionally carries compute-only application work to be
    fused with the primitive's fixed entry charge as one
    :class:`~repro.core.effects.ChargeMany` — semantically identical to
    ``yield Charge(prelude)`` immediately before the call, one scheduler
    round-trip cheaper.

    Raises :class:`OutOfMessageMemoryError` when the header or block pool
    is exhausted — the hard edge of the ``init()`` sizing estimate.
    """
    # Transport dispatch on a plain u32 read, and the transport's own
    # generator handed back as is: no effect is yielded and no frame is
    # added, so either transport runs two frames below its caller.  A
    # stale identifier is caught by the generation check either way.
    slot = view.slot_of(lnvc_id)
    base = view.layout.lnvc_off(slot)
    if view.region.u32(base + _L_TRANSPORT):
        return ring_send(view, pid, slot, base, lnvc_id, data, prelude)
    return _freelist_send(view, pid, slot, base, lnvc_id, data, prelude)


def _freelist_send(view: MPFView, pid: int, slot: int, base: int,
                   lnvc_id: int, data: bytes, prelude: Work | None) -> OpGen:
    """:func:`message_send` over the free-list transport (``slot`` is
    ``lnvc_id``'s, inside the table, ``base`` its descriptor's offset)."""
    if not isinstance(data, (bytes, bytearray, memoryview)):
        raise TypeError("message payload must be bytes-like")
    data = bytes(data)
    r = view.region
    c = view.costs
    lay = view.layout
    bs = view.cfg.block_size
    length = len(data)
    nblk = (length + bs - 1) // bs
    probe = view.probe
    t_entry = probe.now() if probe is not None else 0.0
    lock = FIRST_LNVC_LOCK + slot

    if prelude is None:
        yield view._send_fixed
    else:
        yield ChargeMany((prelude, view._send_fixed_work))

    # Phase 1: allocation.  Blocks are private until linked, so only the
    # free lists need the allocator lock.  Nothing is stored until both
    # the header and the whole chain are known to be there.
    yield view._alloc_acq
    hdr, free_blk, live_msgs, live_blk, live = view._rd_pool(_H_FREE_MSG)
    if hdr == NIL:
        if probe is not None:
            probe.pool(dry=_H_FREE_MSG)
        yield from _release_and_raise(
            [ALLOC_LOCK], OutOfMessageMemoryError("message header pool exhausted")
        )
    blocks, free_blk = r.follow(free_blk, nblk)
    if len(blocks) < nblk:
        if probe is not None:
            probe.pool(((_H_FREE_MSG, 1),), dry=_H_FREE_BLK)
        yield from _release_and_raise(
            [ALLOC_LOCK],
            OutOfMessageMemoryError(f"block pool exhausted ({nblk}-block message)"),
        )
    live_msgs = (live_msgs + 1) & _M32
    live_blk = (live_blk + nblk) & _M32
    live = (live + length) & _M32
    view._wr_pool(_H_FREE_MSG, r.u32(hdr), free_blk, live_msgs, live_blk, live)
    if probe is not None:
        probe.pool(((_H_FREE_MSG, 1), (_H_FREE_BLK, nblk)),
                   live_blocks=live_blk)
    hwm_bytes, hwm_msgs = view._rd_hwm(_H_HWM_LIVE_BYTES)
    if live > hwm_bytes or live_msgs > hwm_msgs:
        view._wr_hwm(_H_HWM_LIVE_BYTES, max(live, hwm_bytes),
                     max(live_msgs, hwm_msgs))
    yield charge((nblk + 1) * c.blk_alloc, "send-alloc")
    yield view._alloc_rel
    t_alloc = probe.now() if probe is not None else 0.0

    # Phase 2: fill the private chain — outside every lock.  The blocks
    # are still linked as the walk above found them: a chain but for its
    # last link.
    fill_chain(r, blocks, data, bs)
    yield charge(nblk * c.blk_fill + length * c.copy_byte, "send-copy",
                 length, nblk, nblk * lay.blk_stride + MSG.size)
    t_fill = probe.now() if probe is not None else 0.0

    # Phase 3: link at the FIFO tail under the circuit lock.
    yield view._acq[slot]
    try:
        steps = view.send_conn(pid, lnvc_id)
    except (UnknownLNVCError, NotConnectedError) as exc:
        yield from _unsend(view, lock, hdr, blocks, length, exc)

    seqno, depth, rsteps = _link_tail(view, base, hdr, pid, length, blocks)
    (sent,) = view._rd_sent(base + _L_BYTES_SENT)
    view._wr_sent(base + _L_BYTES_SENT, (sent + length) & _M64)
    yield charge(c.msg_link + (steps + rsteps) * c.list_step, "send-link")
    if probe is not None:
        probe.msg_sent(pid, slot, lnvc_id >> SLOT_BITS, seqno, length, nblk,
                       depth, t_entry, t_alloc, t_fill)
    yield view._rel[slot]
    yield view._wake[slot]
    return seqno


def message_receive(
    view: MPFView, pid: int, lnvc_id: int, max_len: int | None = None
) -> OpGen:
    """Receive the next message for ``pid`` from the circuit; blocking.

    FCFS connections consume the oldest message not yet taken by any FCFS
    receiver; BROADCAST connections read the oldest message past their
    individual head pointer.  The payload copy out of the block chain
    happens outside the circuit lock, so concurrent receivers overlap
    (Figure 5).  Returns the payload bytes.

    If ``max_len`` is given and the next message is longer, raises
    :class:`BufferOverflowError` *without* consuming the message — the
    safe analogue of the C interface's caller-supplied buffer.
    """
    slot = view.slot_of(lnvc_id)
    base = view.layout.lnvc_off(slot)
    if view.region.u32(base + _L_TRANSPORT):
        return ring_receive(view, pid, slot, base, lnvc_id, max_len)
    return _freelist_receive(view, pid, slot, base, lnvc_id, max_len)


def _freelist_receive(view: MPFView, pid: int, slot: int, base: int,
                      lnvc_id: int, max_len: int | None) -> OpGen:
    """:func:`message_receive` over the free-list transport (``slot``,
    ``base``: as for :func:`_freelist_send`)."""
    r = view.region
    u32 = r.u32
    set_u32 = r.set_u32
    c = view.costs
    probe = view.probe
    t_entry = probe.now() if probe is not None else 0.0
    lock = FIRST_LNVC_LOCK + slot

    yield view._recv_fixed
    yield view._acq[slot]
    try:
        desc, steps = view.recv_conn(pid, lnvc_id)
    except (UnknownLNVCError, NotConnectedError) as exc:
        yield from _release_and_raise([lock], exc)
    yield charge(steps * c.list_step, "recv-find")

    rd_recv = view._rd_recv
    while True:
        # The descriptor is read again after every sleep: the lock was
        # released, and a neighbour closing may have relinked ``rnext``.
        _, proto, msg, rnext, nreads = rd_recv(desc)
        is_fcfs = proto == _P_FCFS
        if is_fcfs:
            msg = u32(base + _L_FCFS_HEAD)
        if msg != NIL:
            break
        # Nothing available: sleep on the circuit's wait channel.  WaitOn
        # atomically releases the lock and reacquires it on wake, closing
        # the lost wake-up window.
        yield view._waiton[slot]
        yield view._recv_wakeup

    (length, nblk, first, next_msg, pending, busy, flags, claimed_seqno,
     _) = view._rd_msg(msg)
    if max_len is not None and length > max_len:
        yield from _release_and_raise(
            [lock],
            BufferOverflowError(
                f"next message is {length} bytes, buffer holds {max_len}"
            ),
        )

    # Claim the message under the lock, then copy outside it.
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
    t_claim = probe.now() if probe is not None else 0.0
    yield view._rel[slot]

    # Copy phase — concurrent with other receivers of the same message.
    # The busy pin keeps the chain as walked here until the completion
    # section below, which hands ``blocks`` to the reap.
    try:
        blocks, payload = drain_chain(r, first, nblk, length,
                                      view.cfg.block_size, view._rd_block)
    except RegionFormatError as exc:
        raise _bad_chain(msg, exc) from None
    yield charge(nblk * c.blk_drain + length * c.copy_byte, "recv-copy",
                 length, nblk)
    t_drain = probe.now() if probe is not None else 0.0

    # Completion: drop the busy pin, account the read, retire and reap.
    yield view._acq[slot]
    _retire_check(view, msg, 1, 0 if is_fcfs else 1)
    yield view._recv_retire
    yield from _reap_head(view, base, (lock,), msg, blocks)
    nrecvs, sent, received = view._rd_traffic(base + _L_NRECVS)
    view._wr_traffic(base + _L_NRECVS, (nrecvs + 1) & _M32, sent,
                     (received + length) & _M64)
    yield view._rel[slot]
    if probe is not None:
        probe.msg_received(pid, slot, lnvc_id >> SLOT_BITS, claimed_seqno,
                           length, is_fcfs, t_entry, t_claim, t_drain)
    return payload


def check_receive(
    view: MPFView, pid: int, lnvc_id: int, prelude: Work | None = None
) -> OpGen:
    """Count the messages currently available to ``pid`` on the circuit.

    Returns 0 when nothing is queued for this receiver.  For an FCFS
    connection the count is advisory only: another FCFS receiver "may
    acquire the message before the checking process can receive the
    message" (paper §2) — the count can be stale the moment the lock is
    released.  For BROADCAST the counted messages are guaranteed to be
    deliverable to this receiver.

    ``prelude`` optionally carries compute-only application work to be
    fused with the primitive's fixed entry charge as one
    :class:`~repro.core.effects.ChargeMany` — the fast path for polling
    loops that back off with compute between rounds (see
    :func:`repro.patterns.select_receive`).
    """
    slot = view.slot_of(lnvc_id)
    base = view.layout.lnvc_off(slot)
    if view.region.u32(base + _L_TRANSPORT):
        return ring_check(view, pid, slot, base, lnvc_id, prelude)
    return _freelist_check(view, pid, slot, base, lnvc_id, prelude)


def _freelist_check(view: MPFView, pid: int, slot: int, base: int,
                    lnvc_id: int, prelude: Work | None) -> OpGen:
    """:func:`check_receive` over the free-list transport (``slot``,
    ``base``: as for :func:`_freelist_send`)."""
    u32 = view.region.u32

    if prelude is None:
        yield view._check_fixed
    else:
        yield ChargeMany((prelude, view._check_fixed_work))
    yield view._acq[slot]
    try:
        desc, steps = view.recv_conn(pid, lnvc_id)
    except (UnknownLNVCError, NotConnectedError) as exc:
        yield from _release_and_raise([FIRST_LNVC_LOCK + slot], exc)
    _, proto, msg, _, _ = view._rd_recv(desc)
    if proto == _P_FCFS:
        msg = u32(base + _L_FCFS_HEAD)
    count = 0
    while msg != NIL:
        count += 1
        msg = u32(msg + _M_NEXT_MSG)
    yield charge((steps + count) * view.costs.list_step, "check-walk")
    yield view._rel[slot]
    return count


def _make_poll_section(view, pid, ids, backoff):
    """Build :func:`poll_receive`'s looping section over circuits ``ids``.

    One head per circuit — entry charge (the first circuit's carries the
    backoff), acquire, walk call — the steps of :func:`check_receive`
    with its generator body between acquire and walk charge as the call.
    The walk finishes the check itself: it jumps to ``walk charge,
    release`` with the circuit's id as the result when there is traffic,
    else to ``walk charge, release, S_NEXT, <next circuit's head>``; an
    error bails with ``(lock held, exception)``.  The empty jump is
    memoized under the ``conn_epoch`` it was resolved at (with ``gen``
    that fixes descriptor, protocol and walk length), so an idle check
    is one read of the LNVC record and allocates nothing.  Returns
    ``None`` when a circuit is a ring (``check_receive`` routes those
    itself); ``ids`` are inside the table.
    """
    r = view.region
    u32, lay = r.u32, view.layout
    if any(u32(lay.lnvc_off(cid & _SLOT_MASK) + _L_TRANSPORT) for cid in ids):
        return None
    peek, rd_recv = view._rd_peek, view._rd_recv
    list_step = view.costs.list_step
    heads: list = []

    def head(i, lnvc_id):
        slot = lnvc_id & _SLOT_MASK
        gen = lnvc_id >> SLOT_BITS
        base = lay.lnvc_off(slot)
        lock = FIRST_LNVC_LOCK + slot
        rel = (S_REL, lock)
        m_epoch = -1  # conn_epoch the three cells below were resolved at
        m_desc = m_fcfs = m_empty = None

        def _walk():
            nonlocal m_epoch, m_desc, m_fcfs, m_empty
            in_use, g, fcfs_head, epoch = peek(base)
            if epoch == m_epoch and g == gen and in_use and (
                    fcfs_head if m_fcfs else u32(m_desc + _R_HEAD)) == NIL:
                return m_empty
            try:
                desc, steps = view.recv_conn(pid, lnvc_id)
            except (UnknownLNVCError, NotConnectedError) as exc:
                return (D_BAIL, (lock, exc))
            _, proto, msg, _, _ = rd_recv(desc)
            fcfs = proto == _P_FCFS
            if fcfs:
                msg = fcfs_head
            count = 0
            while msg != NIL:
                count += 1
                msg = u32(msg + _M_NEXT_MSG)
            tail = ((S_CHARGE, charge((steps + count) * list_step,
                                      "check-walk").work), rel)
            if count:
                return (D_JUMP, lnvc_id, tail)
            m_desc, m_fcfs, m_epoch = desc, fcfs, epoch
            m_empty = (D_JUMP, None,
                       tail + ((S_NEXT, None),) + heads[(i + 1) % len(ids)])
            return m_empty

        fixed = (S_CHARGE, view._check_fixed_work) if i else (
            S_MANY, (backoff, view._check_fixed_work))
        return (fixed, (S_ACQ, lock), (S_CALL, _walk))

    heads.extend(head(i, cid) for i, cid in enumerate(ids))
    return FusedSection(heads[0])


def poll_receive(
    view: MPFView, pid: int, lnvc_ids: Sequence[int], backoff: Work
) -> OpGen:
    """Poll circuits in order, round after round; return the first with traffic.

    Not a ninth primitive: the effect stream is exactly that of
    :func:`check_receive` on each circuit in turn, ``backoff``
    (compute-only work) fused into the first check of every round.  On
    the simulator the whole wait is one looping section
    (:func:`_make_poll_section`) and the generator is resumed only when a
    circuit has traffic or a check fails; real runtimes, unfused runs
    and ring circuits take the loop below.
    """
    ids = tuple(lnvc_ids)
    if not ids:
        raise ValueError("need at least one circuit to poll")
    for cid in ids:  # or a bad id is refused only once its turn comes
        view.slot_of(cid)
    if view.fuse:
        # One entry per (process, first slot) keeps the cache bounded by
        # the table; polling another set from there rebuilds it.
        key = (pid, ids[0] & _SLOT_MASK)
        ent = view._fs_poll_cache.get(key)
        if ent is None or ent[0] != (ids, backoff):
            ent = view._fs_poll_cache[key] = (
                (ids, backoff), _make_poll_section(view, pid, ids, backoff))
        if ent[1] is not None:
            res = yield ent[1]
            if res.__class__ is not tuple:  # a bail is (lock, error)
                return res
            yield from _release_and_raise([res[0]], res[1])
    pending: Work | None = backoff
    while True:
        for cid in ids:
            if (yield from check_receive(view, pid, cid, pending)):
                return cid
            pending = None
        pending = backoff
