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

from typing import NamedTuple, Sequence

from .costmodel import DEFAULT_COSTS, Costs
from .effects import (
    D_BAIL,
    D_JUMP,
    S_ACQ,
    S_CALL,
    S_CHARGE,
    S_MANY,
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
from . import chains as _chains
from .chains import (
    _bad_chain,
    _msg_chain,
    _reap_head,
    _retire_check,
    _splice_chains,
)
from .freelist import fl_alloc, fl_free
from .layout import HDR, MPFConfig, SegmentLayout
from .protocol import (
    ALLOC_LOCK,
    FIRST_LNVC_LOCK,
    GLOBAL_LOCK,
    NAME_MAX,
    NIL,
    SLOT_BITS,
    Protocol,
)
from .region import SharedRegion
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
]


def set_fusion(on: bool) -> None:
    """No-op: sim poll waits always run in the engine.  Kept until ROADMAP 1(a) drops the ledger's import."""


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
# accessors.  A record's base is the same arithmetic, ``view.lnvc_base +
# slot * _LNVC_SIZE`` (``SegmentLayout.lnvc_off`` without the call).
_LNVC_SIZE = LNVC.size
_L_IN_USE = LNVC.offsets["in_use"]
_L_GEN = LNVC.offsets["gen"]
_L_FCFS_HEAD = LNVC.offsets["fcfs_head"]
_L_SEND_LIST = LNVC.offsets["send_list"]
_L_RECV_LIST = LNVC.offsets["recv_list"]
_L_CONN_EPOCH = LNVC.offsets["conn_epoch"]
_L_TRANSPORT = LNVC.offsets["transport"]
_L_BYTES_SENT = LNVC.offsets["bytes_sent"]
_L_BYTES_RECEIVED = LNVC.offsets["bytes_received"]

_S_PID = SEND.offsets["pid"]
_S_NEXT = SEND.offsets["next"]

_R_PID = RECV.offsets["pid"]
_R_HEAD = RECV.offsets["head"]
_R_NEXT = RECV.offsets["next"]

_M_NEXT_MSG = MSG.offsets["next_msg"]

_H_FREE_MSG = HDR.u32["free_msg"]
_H_LIVE_BLOCKS = HDR.u32["live_blocks"]

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

# An enum value as a plain int: constructing a Protocol instance per
# field read is pure overhead when only a comparison is needed.
_P_FCFS = int(Protocol.FCFS)


def encode_lnvc_id(slot: int, gen: int) -> int:
    """Pack a table slot and its generation into a public identifier."""
    return (gen << SLOT_BITS) | slot


def decode_lnvc_id(lnvc_id: int) -> tuple[int, int]:
    """Unpack a public identifier into ``(slot, generation)``."""
    return lnvc_id & _SLOT_MASK, lnvc_id >> SLOT_BITS


class Conn(NamedTuple):
    """A connection-cache entry of :class:`MPFView`: the descriptor, the
    list-walk length to it, and the circuit's ``gen`` and ``conn_epoch``
    that vouch for both.  Read by field name; besides this module,
    :data:`repro.core.chains.C`'s ``ring_take`` reads the receive
    entries (it applies :meth:`MPFView.cached_recv`'s rule in C)."""

    desc: int
    steps: int
    gen: int
    epoch: int


class MPFView:
    """A formatted segment plus its layout and cost model.

    One view is shared by every worker of a program on the simulator,
    the thread runtime and the model checker; each forked process of
    the process runtime works on its own copy.  The region, layout,
    config and costs never change, and no worker state lives here: what
    else the view holds is a cache, and each cache entry carries the key
    that proves it still describes the shared region, so a cache needs no
    invalidation even when other views (processes) change the segment:

    * ``_send_cache`` / ``_recv_cache``: ``(slot, pid) ->`` :class:`Conn`
      ``(desc, steps, gen, epoch)``.  Valid while the circuit's ``gen``
      (bumped when the slot is recycled) and ``conn_epoch`` (bumped
      under the circuit lock on every send / receive list mutation) both
      match, so a hit is exactly what walking the list would find —
      including the walk length that feeds the cost model.
    * ``_fs_poll_cache``: ``(pid, first slot) -> ((ids, backoff),
      (section, heads, walks) or None)``, :func:`poll_receive`'s
      looping sections.  Valid while the polled ids (generation
      included) and the back-off match.  A looping section refers to
      itself, so :meth:`forget_sections` unlinks each before dropping
      it.
    * ``_fs_check_cache``: ``(pid, slot) ->`` the one-circuit section of
      a free-list :func:`check_receive` (its walk, a counting
      :class:`PollWalk`, is ``steps[2][1]``).  Valid while the walk's id
      (generation included) is the check's; the walk's memo carries its
      key.  Nothing in it refers back to the section, so
      :meth:`forget_sections` only empties it.
    * ``_fs_recv_cache``: ``(pid, slot) ->`` :class:`RecvSection`, the
      free-list :func:`message_receive` of a process on a circuit as one
      section.  Valid while the receive's id (generation included) and
      the view's probe are the section's; its own memos carry their
      keys.  A receive holds its section out of the cache while it runs
      it.  Its stages and step tuples refer to each other, so
      :meth:`forget_sections` unlinks each too.
    * ``_drain_memo``: ``None`` or the one BROADCAST message this view
      drained last, ``((lnvc_id, seqno, header, first block, nblocks,
      length), last block, payload)``.  A chain is never written between
      link and reap, a receiver's claim pins the message until its
      completion section, and a reused header or block is linked with a
      new sequence number (a recycled circuit with a new ``gen`` in the
      id) — so a receiver whose key matches takes the drain instead of
      walking the same immutable chain again (:func:`message_receive`).
      FCFS receives never read or write it; on the process runtime each
      process receives a message once, so its copy never hits.

    The view also pre-builds the effect objects the hot primitives yield
    on every call: per-circuit ``Acquire``/``Release``/``Wake``/``WaitOn``
    and the fixed-cost ``Charge`` effects whose work never varies.
    Effects are frozen dataclasses, so one instance per lock/channel can
    be yielded forever instead of allocating a fresh object per call.
    Likewise the record accessors: one ``_rd_<run>`` / ``_wr_<run>``
    callable per entry of :data:`READS` / :data:`STORES`, bound to the
    region once.
    """

    __slots__ = (
        "region",
        "layout",
        "cfg",
        "costs",
        "lnvc_base",
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
        "_fs_poll_cache",
        "_fs_check_cache",
        "_fs_recv_cache",
        "_drain_memo",
        *(f"_rd_{name}" for name in READS),
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
        #: ``layout.lnvc_base``, bound for the message path's addressing.
        self.lnvc_base = layout.lnvc_base
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
        for name, run in STORES.items():
            setattr(self, f"_wr_{name}", region.writer(run))
        # The caches, each with the rule that validates it: see above.
        self._send_cache: dict = {}
        self._recv_cache: dict = {}
        self._fs_poll_cache: dict = {}
        self._fs_check_cache: dict = {}
        self._fs_recv_cache: dict = {}
        self._drain_memo: tuple | None = None
        #: The one observer slot: ``None``, or whatever a runtime's
        #: :meth:`repro.obs.Recorder.attach` put here.  Every observation
        #: instant of the message path tests this once and makes at most
        #: one plain call on it — never a new effect, so observation
        #: cannot perturb a simulated schedule (docs/observability.md,
        #: "Attaching observers").
        self.probe = None

    def forget_sections(self) -> None:
        """Drop every section ``_fs_poll_cache``, ``_fs_check_cache`` and
        ``_fs_recv_cache`` hold, unlinked first.

        A looping section's heads and its walks' memos refer to each
        other, a receive section's stages and steps likewise, and both
        to this view: left linked, each run's sections kept its view and
        region alive until a full garbage collection, one segment per
        run (``SimRuntime.run``, ``ThreadRuntime.run`` and the model
        checker call this at the end of a run, a closed
        :class:`~repro.runtime.blocking.BlockingMPF` or
        :class:`~repro.runtime.posix.PosixSegment` when it closes).
        Unlinking empties the heads list the walks index and resets
        every walk to "resolve again" with nothing memoized (each
        empty-jump memo holds the next head's walk), and drops a receive
        section's steps and memos.  The entries of poll sets that build
        no section stay.  A receive section leaves its cache by one
        ``pop``, so receives that other threads run on this view
        meanwhile, holding theirs out of it, lose nothing."""
        cache = self._fs_poll_cache
        for key, (_, built) in list(cache.items()):
            if built is not None:
                _, heads, walks = built
                heads.clear()
                for walk in walks:
                    walk.unlink()
                del cache[key]
        self._fs_check_cache.clear()
        recv = self._fs_recv_cache
        for key in list(recv):
            sec = recv.pop(key, None)
            if sec is not None:
                sec.unlink()

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
        base = self.lnvc_base + slot * _LNVC_SIZE
        n = LNVC.get(self.region, base, "name_len")
        return self.region.read(base + LNVC.tail_off, n)

    def write_name(self, slot: int, data: bytes) -> None:
        base = self.lnvc_base + slot * _LNVC_SIZE
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
        base = self.lnvc_base + slot * _LNVC_SIZE
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
        base = self.lnvc_base + slot * _LNVC_SIZE
        in_use, g, epoch = self._rd_ident(base)
        if not in_use or g != gen:
            self.resolve(lnvc_id)  # raises with the precise message
        hit = self._recv_cache.get((slot, pid))
        if hit is not None and hit.gen == gen and hit.epoch == epoch:
            return hit.desc, hit.steps
        desc, _, steps = _find_recv(self, base, pid)
        if desc == NIL:
            raise NotConnectedError(f"pid {pid} holds no receive connection here")
        self._recv_cache[(slot, pid)] = Conn(desc, steps, gen, epoch)
        return desc, steps

    def cached_recv(self, pid: int, lnvc_id: int) -> int:
        """``pid``'s receive descriptor if the cache still vouches for
        it, else ``NIL`` — never a list walk, so (unlike
        :meth:`recv_conn`) it is safe with no lock held.  The epoch is
        a word read of its own, ahead of the record read behind it: a
        lock-free reader may not assume one call sees one instant."""
        slot = lnvc_id & _SLOT_MASK
        gen = lnvc_id >> SLOT_BITS
        base = self.lnvc_base + slot * _LNVC_SIZE
        hit = self._recv_cache.get((slot, pid))
        if hit is None or hit.gen != gen:
            return NIL
        if self.region.u32(base + _L_CONN_EPOCH) != hit.epoch:
            return NIL
        in_use, g = self._rd_live(base)
        if not in_use or g != gen:
            return NIL
        return hit.desc

    def send_conn(self, pid: int, lnvc_id: int) -> int:
        """Walk length to ``pid``'s send descriptor on the live circuit
        ``lnvc_id``; the send-side twin of :meth:`recv_conn`."""
        slot = lnvc_id & _SLOT_MASK
        gen = lnvc_id >> SLOT_BITS
        base = self.lnvc_base + slot * _LNVC_SIZE
        in_use, g, epoch = self._rd_ident(base)
        if not in_use or g != gen:
            self.resolve(lnvc_id)  # raises with the precise message
        hit = self._send_cache.get((slot, pid))
        if hit is not None and hit.gen == gen and hit.epoch == epoch:
            return hit.steps
        sd, _, steps = _find_send(self, base, pid)
        if sd == NIL:
            raise NotConnectedError(f"pid {pid} holds no send connection here")
        self._send_cache[(slot, pid)] = Conn(sd, steps, gen, epoch)
        return steps

    # -- table search (caller holds GLOBAL_LOCK) ----------------------------

    def find_by_name(self, data: bytes) -> tuple[int | None, int]:
        """Scan the table for a live circuit named ``data``.

        Returns ``(slot_or_None, slots_examined)``; the examination count
        feeds the cost model.
        """
        r = self.region
        steps = 0
        for slot in range(self.cfg.max_lnvcs):
            steps += 1
            base = self.lnvc_base + slot * _LNVC_SIZE
            if LNVC.get(r, base, "in_use") and self.read_name(slot) == data:
                return slot, steps
        return None, steps

    def find_free_slot(self) -> tuple[int | None, int]:
        """Scan for an unused table slot; returns ``(slot_or_None, steps)``."""
        r = self.region
        steps = 0
        for slot in range(self.cfg.max_lnvcs):
            steps += 1
            if not LNVC.get(r, self.lnvc_base + slot * _LNVC_SIZE, "in_use"):
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


def _unsend(view: MPFView, lock: int, hdr: int, first: int, nblk: int,
            length: int, exc: Exception) -> OpGen:
    """Undo a send refused at its link step, then raise ``exc``.

    The header and the filled chain of ``nblk`` blocks from ``first``
    are allocated and counted but not linked; the caller holds the
    circuit lock ``lock``.
    """
    yield Release(lock)
    yield Acquire(ALLOC_LOCK)
    kernels = _chains.ACTIVE
    last = kernels.last(view.region, first, nblk) if nblk else NIL
    kernels.free(view, hdr, 1, first, last, nblk, length)
    yield from _release_and_raise([ALLOC_LOCK], exc)


def _free_reaped(view: MPFView, base: int, reap: tuple) -> OpGen:
    """Return what :func:`~repro.core.chains._reap_head` unlinked from the
    circuit at ``base`` — ``reap`` is its ``(head, n, depth, first,
    last, blocks, bytes)`` — to the free lists, under ``ALLOC_LOCK``
    nested in the circuit lock the caller holds."""
    head, n, depth, first, last, nblk, nbytes = reap
    probe = view.probe
    if probe is not None:
        probe.queue_depth(view.layout.lnvc_slot(base), depth)
    yield view._alloc_acq
    if probe is not None:
        probe.msgs_freed(view.layout.lnvc_slot(base),
                         view.region.u32(base + _L_GEN),
                         _freed(view, head, n))
    _chains.ACTIVE.free(view, head, n, first, last, nblk, nbytes)
    yield view._alloc_rel
    yield charge(n * view.costs.msg_discard + nblk * view.costs.blk_free,
                 "reap")


def _freed(view: MPFView, msg: int, n: int) -> list:
    """``(sender, seqno, length)`` of the ``n`` headers from ``msg``
    (linked through ``next_msg``), for the probe."""
    freed = []
    for _ in range(n):
        length, _, _, msg, _, _, _, seqno, sender = view._rd_msg(msg)
        freed.append((sender, seqno, length))
    return freed


def _delete_lnvc(view: MPFView, slot: int) -> OpGen:
    """Discard a circuit whose last connection just closed.

    Paper §2: "If this is the last process connected to lnvc_id, the LNVC
    is deleted and all unread messages are discarded."  Caller holds the
    global lock and the circuit lock.
    """
    r = view.region
    c = view.costs
    base = view.layout.lnvc_off(slot)
    chains: list[tuple] = []
    nbytes = 0
    head = msg = LNVC.get(r, base, "fifo_head")
    try:
        while msg != NIL:
            length, nblocks, first, nxt, _, _, _, _, _ = view._rd_msg(msg)
            chains.append(_msg_chain(view, msg, first, nblocks))
            nbytes += length
            msg = nxt
    except RegionFormatError as exc:
        yield from _release_and_raise((view.lnvc_lock(slot), GLOBAL_LOCK), exc)
    nblk = 0
    if chains:
        first, last, nblk = _splice_chains(view, chains)
        yield Acquire(ALLOC_LOCK)
        probe = view.probe
        if probe is not None:
            probe.msgs_freed(slot, LNVC.get(r, base, "gen"),
                             _freed(view, head, len(chains)), discard=1)
        _chains.ACTIVE.free(view, head, len(chains), first, last, nblk,
                            nbytes)
        yield Release(ALLOC_LOCK)
    if LNVC.get(r, base, "transport"):
        # Ring circuits have no FIFO to discard (chains is empty above);
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
        len(chains) * c.msg_discard + nblk * c.blk_free + c.close_fixed // 2,
        "lnvc-delete")
    return len(chains)


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
        try:
            reap = _reap_head(view, base)
        except RegionFormatError as exc:
            yield from _release_and_raise((lock, GLOBAL_LOCK), exc)
        if reap is not None:
            yield from _free_reaped(view, base, reap)
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
    base = view.lnvc_base + slot * _LNVC_SIZE
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
    kernels = _chains.ACTIVE
    yield view._alloc_acq
    hdr, first = kernels.alloc(view, nblk, length)
    if hdr == NIL:  # ``first`` is then the head word of the dry pool
        if probe is not None:
            probe.pool(dry=first)
        yield from _release_and_raise([ALLOC_LOCK], OutOfMessageMemoryError(
            "message header pool exhausted" if first == _H_FREE_MSG
            else f"block pool exhausted ({nblk}-block message)"))
    if probe is not None:
        probe.pool(live_blocks=r.u32(_H_LIVE_BLOCKS))
    yield charge((nblk + 1) * c.blk_alloc, "send-alloc")
    yield view._alloc_rel
    t_alloc = probe.now() if probe is not None else 0.0

    # Phase 2: fill the private chain — outside every lock.  The blocks
    # are still linked as the pop found them: a chain but for its last
    # link.
    kernels.fill(r, first, nblk, data, bs)
    yield charge(nblk * c.blk_fill + length * c.copy_byte, "send-copy",
                 length, nblk, nblk * lay.blk_stride + MSG.size)
    t_fill = probe.now() if probe is not None else 0.0

    # Phase 3: link at the FIFO tail under the circuit lock.
    yield view._acq[slot]
    try:
        steps = view.send_conn(pid, lnvc_id)
    except (UnknownLNVCError, NotConnectedError) as exc:
        yield from _unsend(view, lock, hdr, first, nblk, length, exc)

    seqno, depth, rsteps = kernels.link(view, base, hdr, pid, length, first,
                                        nblk)
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
    (Figure 5).  Every receiver is charged its own copy; on the host,
    BROADCAST receivers sharing a view walk a free-list message's chain
    once (:class:`MPFView`, ``_drain_memo``).  Returns the payload bytes.

    If ``max_len`` is given and the next message is longer, raises
    :class:`BufferOverflowError` *without* consuming the message — the
    safe analogue of the C interface's caller-supplied buffer.
    """
    slot = view.slot_of(lnvc_id)
    base = view.lnvc_base + slot * _LNVC_SIZE
    if view.region.u32(base + _L_TRANSPORT):
        return ring_receive(view, pid, slot, base, lnvc_id, max_len)
    return _freelist_receive(view, pid, slot, base, lnvc_id, max_len)


def _freelist_receive(view: MPFView, pid: int, slot: int, base: int,
                      lnvc_id: int, max_len: int | None) -> OpGen:
    """:func:`message_receive` over the free-list transport (``slot``,
    ``base``: as for :func:`_freelist_send`): one :class:`RecvSection`,
    cached per process and circuit, on every runtime.  The generator is
    resumed once when the message is in hand, and once more per sleep
    (it yields the ``WaitOn`` itself, then the section's claim again).

    The receive takes its section out of ``view._fs_recv_cache`` while
    it runs it (a ``pop``, atomic under the GIL) and puts it back
    afterwards, so a nested receive, or one of the same pid on another
    thread of a shared view, builds a section of its own (the one put
    back last stays cached)."""
    key = (pid, slot)
    cache = view._fs_recv_cache
    sec = cache.pop(key, None)
    probe = view.probe
    if sec is None or sec.lnvc_id != lnvc_id or sec.probe is not probe:
        if sec is not None:  # a recycled slot's old id, or a new probe
            sec.unlink()
        sec = RecvSection(view, pid, lnvc_id)
    t_entry = probe.now() if probe is not None else 0.0
    sec.max_len = max_len
    try:
        res = yield sec.head
        while res is None:  # nothing queued: the lock is held
            yield view._waiton[slot]
            res = yield sec.again
        if probe is not None and res.__class__ is not tuple:
            probe.msg_received(pid, slot, lnvc_id >> SLOT_BITS, sec.seqno,
                               sec.length, sec.fcfs, t_entry, sec.t_claim,
                               sec.t_drain)
    finally:
        sec.payload = None
        cache[key] = sec
    if res.__class__ is not tuple:
        return res
    yield from _release_and_raise(*res)  # a bail: (locks, error)


#: A receive section's per-shape memos (copy tails by message shape, reap
#: tails by reap size) start over past this many entries.
_SHAPES_MAX = 64


class RecvSection:
    """:func:`message_receive` over the free-list transport as one
    :class:`~repro.core.effects.FusedSection`, for one process (``pid``)
    on one circuit (``lnvc_id``) of a view; built once and cached
    (``MPFView._fs_recv_cache``).

    The steps are the receive's effects in order, each stretch of
    primitive code between two of them an ``S_CALL`` of a
    :class:`RecvStage`:

    * :attr:`head`: ``recv-fixed``, acquire the circuit lock, the
      connection stage — which jumps to ``recv-find``, the claim stage;
    * a claim jumps to release, the drain stage — which jumps to
      ``recv-copy``, acquire, the completion stage — which jumps to
      ``recv-retire`` and release, or on a reap to ``recv-retire``,
      acquire ``ALLOC_LOCK``, the free stage — which jumps to its
      release, ``reap`` and the circuit's release.  The result is the
      payload;
    * an empty queue bails with the lock held and ``None``: the
      generator yields the ``WaitOn`` and then :attr:`again`
      (``recv-wakeup``, the claim stage);
    * an error bails as ``(locks to release, exception)``.

    The copy phase runs outside the lock, concurrent with other
    receivers of the same message; the claim's busy pin keeps the chain
    as walked until the completion, which hands its last block to the
    reap.  A section built under a probe (:attr:`probe`, the view's when
    it was built) carries the probe's stages too: the claim stamp after
    the claim, the drain stamp after ``recv-copy``, and on a reap the
    queue depth before ``ALLOC_LOCK`` and the freed messages under it —
    each where the receive's effect stream puts that instant.

    The stage bodies are :data:`_RECV_STAGES`; what one hands the next
    (the claimed message, its drain, the reap, the probe's stamps) lives
    in the slots below, with the memos that let the C section runner run
    a stage itself (``repro/core/sections.c``): the connection
    (:attr:`desc`, :attr:`found` under :attr:`gen` and :attr:`epoch`,
    checked against the LNVC record as :class:`PollWalk` checks its
    memo) and the tails by message shape (:attr:`copies`) and reap size
    (:attr:`reaps`), under int keys ``a << 32 | b``.
    """

    __slots__ = ("view", "pid", "lnvc_id", "gen", "base", "lock", "seg",
                 "bs", "probe", "max_len", "desc", "epoch", "found",
                 "msg", "first", "nblk", "length", "seqno", "fcfs", "last",
                 "payload", "reap", "t_claim", "t_drain", "head", "again",
                 "claimed", "copied", "copies", "retired", "reaping",
                 "failed", "reaps", "stages")

    def __init__(self, view: MPFView, pid: int, lnvc_id: int) -> None:
        slot = lnvc_id & _SLOT_MASK
        self.view = view
        self.pid = pid
        self.lnvc_id = lnvc_id
        self.gen = int(lnvc_id >> SLOT_BITS)
        self.base = view.lnvc_base + slot * _LNVC_SIZE
        self.lock = lock = FIRST_LNVC_LOCK + slot
        #: The segment's bytes, as the kernels read them.
        self.seg = view.region._mv
        self.bs = view.cfg.block_size
        self.probe = probe = view.probe
        self.max_len = None
        #: The connection memo: ``None`` until resolved.
        self.desc = self.epoch = self.found = None
        self.msg = self.first = self.nblk = self.length = None
        self.seqno = self.fcfs = self.last = self.payload = self.reap = None
        self.t_claim = self.t_drain = 0.0
        self.stages = stages = tuple(
            RecvStage(self, kind) for kind in range(len(_RECV_STAGES)))
        conn, claim, drain, complete, free = stages[:5]
        self.head = FusedSection(((S_CHARGE, view._recv_fixed.work),
                                  (S_ACQ, lock), (S_CALL, conn)))
        self.again = FusedSection(((S_CHARGE, view._recv_wakeup.work),
                                   (S_CALL, claim)))
        retire = (S_CHARGE, view._recv_retire.work)
        self.failed = (retire,)
        self.retired = (retire, (S_REL, lock))

        def tap(kind: int) -> tuple:
            """Stage ``kind``'s step: a probe's stage, so none without."""
            return ((S_CALL, stages[kind]),) if probe is not None else ()

        self.claimed = tap(5) + ((S_REL, lock), (S_CALL, drain))
        self.copied = tap(6) + ((S_ACQ, lock), (S_CALL, complete))
        self.reaping = (retire,) + tap(7) + (
            (S_ACQ, ALLOC_LOCK), (S_CALL, free if probe is None else stages[8]))
        self.copies: dict = {}
        self.reaps: dict = {}

    def unlink(self) -> None:
        """Drop every step tuple and memo: each holds stages, and the
        stages hold this section."""
        self.head = self.again = self.found = self.claimed = None
        self.copied = self.failed = self.retired = self.reaping = None
        self.stages = self.epoch = self.payload = self.reap = None
        self.copies.clear()
        self.reaps.clear()


def _shape_memo(memo: dict, key: int, steps: tuple) -> tuple:
    """Memoize ``steps`` under ``key`` (a full memo starts over)."""
    if len(memo) >= _SHAPES_MAX:
        memo.clear()
    memo[key] = steps
    return steps


def _recv_conn(sec: RecvSection):
    view = sec.view
    in_use, gen, epoch = view._rd_ident(sec.base)
    if in_use and gen == sec.gen and epoch == sec.epoch:
        return (D_JUMP, None, sec.found)  # the memo holds
    try:
        desc, steps = view.recv_conn(sec.pid, sec.lnvc_id)
    except (UnknownLNVCError, NotConnectedError) as exc:
        return (D_BAIL, ((sec.lock,), exc))
    sec.desc, sec.epoch = desc, epoch
    sec.found = ((S_CHARGE, charge(steps * view.costs.list_step,
                                   "recv-find").work),
                 (S_CALL, sec.stages[1]))
    return (D_JUMP, None, sec.found)


def _recv_claim(sec: RecvSection):
    try:
        got = _chains.ACTIVE.claim(sec.view, sec.base, sec.desc, sec.max_len)
    except BufferOverflowError as exc:
        return (D_BAIL, ((sec.lock,), exc))
    if got is None:
        return (D_BAIL, None)
    sec.msg, sec.first, sec.nblk, sec.length, sec.seqno, sec.fcfs = got
    return (D_JUMP, None, sec.claimed)


def _recv_drain(sec: RecvSection):
    # A chain is never written between link and reap, so a BROADCAST
    # receiver whose view already drained this very message (the key
    # names it: circuit and generation, sequence number, header, chain,
    # length) takes that drain's ``(last, payload)``; the simulated copy
    # is charged either way.  FCFS messages have one reader and skip the
    # memo.
    view = sec.view
    msg, first, nblk, length = sec.msg, sec.first, sec.nblk, sec.length
    if sec.fcfs:
        key = memo = None
    else:
        key = (sec.lnvc_id, sec.seqno, msg, first, nblk, length)
        memo = view._drain_memo
    if memo is not None and memo[0] == key:
        _, last, payload = memo
    else:
        try:
            last, payload = _chains.ACTIVE.drain(view.region, first, nblk,
                                                 length, sec.bs)
        except RegionFormatError as exc:
            return (D_BAIL, ((), _bad_chain(msg, exc)))
        if key is not None:
            view._drain_memo = (key, last, payload)
    sec.last, sec.payload = last, payload
    shape = length << 32 | nblk
    steps = sec.copies.get(shape)
    if steps is None:
        c = view.costs
        steps = _shape_memo(sec.copies, shape, ((
            S_CHARGE, charge(nblk * c.blk_drain + length * c.copy_byte,
                             "recv-copy", length, nblk).work),) + sec.copied)
    return (D_JUMP, payload, steps)


def _recv_complete(sec: RecvSection):
    try:
        reap = _chains.ACTIVE.complete(sec.view, sec.base, sec.msg,
                                       0 if sec.fcfs else 1, sec.last,
                                       sec.length)
    except RegionFormatError as exc:
        return (D_JUMP, ((sec.lock,), exc), sec.failed)
    if reap is None:
        return (D_JUMP, sec.payload, sec.retired)
    sec.reap = reap
    return (D_JUMP, sec.payload, sec.reaping)


def _recv_free(sec: RecvSection):
    view = sec.view
    head, n, _, first, last, nblk, nbytes = sec.reap
    _chains.ACTIVE.free(view, head, n, first, last, nblk, nbytes)
    shape = n << 32 | nblk
    steps = sec.reaps.get(shape)
    if steps is None:
        c = view.costs
        steps = _shape_memo(sec.reaps, shape, (
            (S_REL, ALLOC_LOCK),
            (S_CHARGE, charge(n * c.msg_discard + nblk * c.blk_free,
                              "reap").work),
            (S_REL, sec.lock)))
    return (D_JUMP, sec.payload, steps)


def _recv_stamp_claim(sec: RecvSection):
    sec.t_claim = sec.probe.now()


def _recv_stamp_drain(sec: RecvSection):
    sec.t_drain = sec.probe.now()


def _recv_depth(sec: RecvSection):
    sec.probe.queue_depth(sec.lock - FIRST_LNVC_LOCK, sec.reap[2])


def _recv_free_traced(sec: RecvSection):
    head, n = sec.reap[:2]
    sec.probe.msgs_freed(sec.lock - FIRST_LNVC_LOCK, sec.gen,
                         _freed(sec.view, head, n))
    return _recv_free(sec)


#: The stage bodies of a :class:`RecvSection`, by :attr:`RecvStage.kind`:
#: connection, claim, drain, completion, reap free; then the probe's
#: (which the C section runner always hands to Python): claim stamp, drain
#: stamp, queue depth, reap free with the freed messages.
_RECV_STAGES = (_recv_conn, _recv_claim, _recv_drain, _recv_complete,
                _recv_free, _recv_stamp_claim, _recv_stamp_drain,
                _recv_depth, _recv_free_traced)


class RecvStage:
    """One ``S_CALL`` of a :class:`RecvSection`: stage :attr:`kind` of
    :data:`_RECV_STAGES` over :attr:`sec`.

    The C section runner (``repro/core/sections.c``, in the engine's
    loop and in ``sync.c``'s drive) runs the stage itself while the
    section's memo for it holds — the connection memo, a copy or reap
    tail memoized for the shape at hand, and for a BROADCAST drain a
    message this view drained already — calling the kernels
    ``conn_holds``, ``sec_claim``, ``chain_drain`` (an FCFS message,
    into a ``bytes`` it builds), ``sec_complete`` and ``sec_free``
    (:attr:`repro.core.chains.Kernels.addresses`).  Called, it runs the
    stage's Python body: the reference, and what runs on any miss or
    kernel refusal and under the Python drive.  A BROADCAST drain that
    is not a memo hit is always the body's, through the kernel set's
    ``drain``: a chain is drained once per message and view, in one
    place.  An exception the body does not answer bails as ``((),
    exception)``, so the generator raises it holding the locks the
    receive holds at that step.
    """

    __slots__ = ("sec", "kind")

    def __init__(self, sec: RecvSection, kind: int) -> None:
        self.sec = sec
        self.kind = kind

    def __call__(self):
        try:
            return _RECV_STAGES[self.kind](self.sec)
        except Exception as exc:  # noqa: BLE001 - raised by the generator
            return (D_BAIL, ((), exc))


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
    base = view.lnvc_base + slot * _LNVC_SIZE
    if view.region.u32(base + _L_TRANSPORT):
        return ring_check(view, pid, slot, base, lnvc_id, prelude)
    return _freelist_check(view, pid, slot, lnvc_id, prelude)


def _freelist_check(view: MPFView, pid: int, slot: int, lnvc_id: int,
                    prelude: Work | None) -> OpGen:
    """:func:`check_receive` over the free-list transport: one section,
    cached per process and slot (``view._fs_check_cache``), whose walk
    (a :class:`PollWalk` with no next head) counts; a ``prelude`` takes
    the place of its entry charge for this call."""
    sec = view._fs_check_cache.get((pid, slot))
    if sec is None or sec.steps[2][1].lnvc_id != lnvc_id:
        sec = view._fs_check_cache[pid, slot] = FusedSection((
            (S_CHARGE, view._check_fixed_work),
            (S_ACQ, FIRST_LNVC_LOCK + slot),
            (S_CALL, PollWalk(view, pid, lnvc_id, None, None))))
    if prelude is not None:
        sec = FusedSection(((S_MANY, (prelude, view._check_fixed_work)),)
                           + sec.steps[1:])
    res = yield sec
    if res.__class__ is not tuple:  # a bail is (lock, error)
        return res
    yield from _release_and_raise([res[0]], res[1])


class PollWalk:
    """One circuit's walk call in :func:`poll_receive`'s looping section
    (:func:`_make_poll_section`) or in a free-list :func:`check_receive`'s
    section: what the ``S_CALL`` step after the circuit's acquire runs.

    Called, it finishes :func:`check_receive` on the circuit: a
    ``D_JUMP`` to ``walk charge, release`` with the circuit's id as the
    result when there is traffic, else to ``walk charge, release, <next
    circuit's head>``; with no next head (``nxt`` ``None``: a check) the
    result is the message count and an empty queue jumps to ``walk
    charge, release`` with 0.  An error bails with ``(lock held,
    exception)``.
    The empty jump is memoized (:attr:`empty`) under the ``conn_epoch``
    it was resolved at (:attr:`epoch`, with the descriptor :attr:`desc`,
    :attr:`fcfs` and ``gen``, which fix the walk length), so an idle
    check is one read of the LNVC record and allocates nothing; a jump
    with traffic is memoized by its message count (:attr:`tails`) under
    the same epoch.

    The C section runner does not call it while the memo holds: it
    hands the memo to the kernel ``poll_walk`` (one of
    :attr:`repro.core.chains.Kernels.addresses`), which counts the queue
    in C, and takes :attr:`empty` or ``tails[count]`` itself
    (``repro/core/sections.c``, on the engine and under ``sync.c``'s
    drive).  This method is the reference, and what runs on any
    refusal.
    """

    __slots__ = ("view", "pid", "lnvc_id", "gen", "base", "seg", "rel",
                 "heads", "next", "epoch", "desc", "fcfs", "empty", "tails")

    def __init__(self, view, pid, lnvc_id, heads, nxt) -> None:
        slot = lnvc_id & _SLOT_MASK
        self.view = view
        self.pid = pid
        self.lnvc_id = lnvc_id
        self.gen = int(lnvc_id >> SLOT_BITS)
        self.base = view.layout.lnvc_off(slot)
        #: The segment's bytes, as the kernel reads them.
        self.seg = view.region._mv
        self.rel = (S_REL, FIRST_LNVC_LOCK + slot)
        #: The section's heads, and the index of the one after this walk.
        self.heads = heads
        self.next = nxt
        #: The memo: ``None`` until resolved, then the ``conn_epoch``
        #: that vouches for the three below.
        self.epoch = None
        self.desc = self.fcfs = self.empty = None
        self.tails: dict = {}

    def __call__(self):
        view = self.view
        in_use, g, fcfs_head, epoch = view._rd_peek(self.base)
        held = epoch == self.epoch and g == self.gen and in_use
        if held and (fcfs_head if self.fcfs else
                     view.region.u32(self.desc + _R_HEAD)) == NIL:
            return self.empty
        lnvc_id = self.lnvc_id
        try:
            desc, steps = view.recv_conn(self.pid, lnvc_id)
        except (UnknownLNVCError, NotConnectedError) as exc:
            return (D_BAIL, (self.rel[1], exc))
        _, proto, msg, _, _ = view._rd_recv(desc)
        fcfs = proto == _P_FCFS
        if fcfs:
            msg = fcfs_head
        count = 0
        u32 = view.region.u32
        while msg != NIL:
            count += 1
            msg = u32(msg + _M_NEXT_MSG)
        tail = ((S_CHARGE, charge((steps + count) * view.costs.list_step,
                                  "check-walk").work), self.rel)
        if count:
            got = (D_JUMP, count if self.next is None else lnvc_id, tail)
            if held:
                self.tails[count] = got
            return got
        self.desc, self.fcfs, self.epoch = desc, fcfs, epoch
        self.empty = ((D_JUMP, 0, tail) if self.next is None else
                      (D_JUMP, None, tail + self.heads[self.next]))
        self.tails.clear()
        return self.empty

    def unlink(self) -> None:
        """Forget the memo: "resolve again", with nothing memoized (each
        memoized jump holds the next head's walk)."""
        self.epoch = self.empty = None
        self.tails.clear()


def _make_poll_section(view, pid, ids, backoff):
    """Build :func:`poll_receive`'s looping section over circuits ``ids``.

    One head per circuit — entry charge (the first circuit's carries the
    backoff), acquire, walk call — the steps of :func:`check_receive`
    with its generator body between acquire and walk charge as the call
    (:class:`PollWalk`).  Returns ``(section, heads, walks)`` — what
    :meth:`MPFView.forget_sections` clears to break the section's
    references to itself — or ``None`` when a circuit is a ring
    (``check_receive`` routes those itself); ``ids`` are inside the
    table.
    """
    u32, lay = view.region.u32, view.layout
    if any(u32(lay.lnvc_off(cid & _SLOT_MASK) + _L_TRANSPORT) for cid in ids):
        return None
    heads: list = []
    walks = [PollWalk(view, pid, cid, heads, (i + 1) % len(ids))
             for i, cid in enumerate(ids)]
    heads.extend(
        ((S_CHARGE, view._check_fixed_work) if i else
         (S_MANY, (backoff, view._check_fixed_work)),
         (S_ACQ, FIRST_LNVC_LOCK + (cid & _SLOT_MASK)), (S_CALL, walk))
        for i, (cid, walk) in enumerate(zip(ids, walks)))
    return FusedSection(heads[0]), heads, walks


def poll_receive(
    view: MPFView, pid: int, lnvc_ids: Sequence[int], backoff: Work
) -> OpGen:
    """Poll circuits in order, round after round; return the first with traffic.

    Not a ninth primitive: the effect stream is exactly that of
    :func:`check_receive` on each circuit in turn, ``backoff``
    (compute-only work) fused into the first check of every round.  Over
    free-list circuits the whole wait is one looping section
    (:func:`_make_poll_section`), on every runtime, and the generator is
    resumed only when a circuit has traffic or a check fails; a set that
    includes a ring circuit takes the per-check loop below.
    """
    ids = tuple(lnvc_ids)
    if not ids:
        raise ValueError("need at least one circuit to poll")
    for cid in ids:  # or a bad id is refused only once its turn comes
        view.slot_of(cid)
    # One entry per (process, first slot) keeps the cache bounded by the
    # table; polling another set from there rebuilds it.
    key = (pid, ids[0] & _SLOT_MASK)
    ent = view._fs_poll_cache.get(key)
    if ent is None or ent[0] != (ids, backoff):
        ent = view._fs_poll_cache[key] = (
            (ids, backoff), _make_poll_section(view, pid, ids, backoff))
    if ent[1] is not None:
        res = yield ent[1][0]
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
