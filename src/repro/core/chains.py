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
    claimed for a receive descriptor, ``None`` on an empty queue,
    :class:`~repro.core.errors.BufferOverflowError` past ``max_len``;
``complete(view, base, msg, unread, last, length)`` — circuit
    the pin dropped, the retirement rule applied, the retired head of
    the FIFO unlinked with its chains spliced into one, the receive
    counted: ``None``, or the reap ``(head, n, depth, first, last,
    blocks, bytes)``;
``free(view, head, n, first, last, nblk, nbytes)`` — ``ALLOC_LOCK``
    ``n`` headers from ``head`` and one chain back to the free lists.

The C source is ``chains.c``.  A kernel that refuses its input writes
nothing and hands the same arguments to the Python reference
(:data:`PYTHON`: the list kernels of :mod:`repro.core.freelist` and the
sections below), which raises the error every reader of the segment
knows, waits or does the work: a chain kernel refuses a chain it will
not follow, a section kernel a dry pool, a record or chain that leaves
the region or does not end, an overflowing receive and an empty queue.
The C functions keep no state, so threads call them with the
interpreter lock released.

At first import gcc builds ``chains.c`` as a cffi extension into a file
beside this module, named by the hash of what goes into it (source,
declarations, cffi backend; the file suffix names the interpreter), and
later imports load it.  The build compiles in a temporary directory
beside the target and renames the library into place, so processes
importing at once each load a whole one.
Without cffi, without a compiler, or in a directory it may not write,
the build fails and the Python kernels run: :data:`ACTIVE` is the set in
use and ``ACTIVE.name`` says which — what the platform allowed, not a
setting.
"""

from __future__ import annotations

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
from .protocol import NIL, MsgFlags, Protocol
from .region import U32_MASK as _M32, U64_MASK as _M64
from .structs import LNVC, MSG, RECV

__all__ = ["Kernels", "PYTHON", "C", "ACTIVE"]

#: The compiler the build runs.
CC = "gcc"

_HERE = Path(__file__).parent
_SOURCE = _HERE / "chains.c"
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


class Kernels:
    """One implementation of the four chain kernels and the five section
    kernels (see the module docstring)."""

    __slots__ = ("name", "pop", "fill", "drain", "last",
                 "alloc", "link", "claim", "complete", "free")

    def __init__(self, name: str, pop, fill, drain, last,
                 alloc, link, claim, complete, free) -> None:
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


PYTHON = Kernels("python", _py_pop, _py_fill, _py_drain, _py_last,
                 _alloc_message, _link_tail, _claim_next, _complete_receive,
                 _free_chain)


# ---------------------------------------------------------------------------
# the C kernels
# ---------------------------------------------------------------------------


def _compile(name: str, source: bytes, target: Path) -> None:
    """gcc ``source`` into the extension module ``name`` at ``target``
    (what only a cold cache pays for, imports included); ``OSError``
    when it cannot be done."""
    import subprocess
    import sysconfig
    import tempfile

    import cffi

    ffi = cffi.FFI()
    ffi.cdef(_CDEF)
    ffi.set_source(name, source.decode(), compiler_verbose=False)
    with tempfile.TemporaryDirectory(prefix=name + ".",
                                     dir=target.parent) as tmp:
        c_file, so_file = Path(tmp, name + ".c"), Path(tmp, target.name)
        ffi.emit_c_code(str(c_file))
        try:
            subprocess.run(
                [CC, "-O2", "-shared", "-fPIC",
                 "-I" + sysconfig.get_paths()["include"],
                 "-o", str(so_file), str(c_file)],
                check=True, capture_output=True, timeout=120)
        except subprocess.SubprocessError as exc:
            raise OSError(f"{CC} could not build {name}: {exc}") from exc
        os.replace(so_file, target)


def _build(where: Path):
    """Build (or find) the extension in ``where`` and import it; ``None``
    when that cannot be done here."""
    try:
        import _cffi_backend
    except ImportError:
        return None
    source = _SOURCE.read_bytes()
    key = zlib.crc32(b"\0".join((
        source, _CDEF.encode(), _cffi_backend.__version__.encode())))
    name = f"_chains_{key:08x}"
    target = where / (name + importlib.machinery.EXTENSION_SUFFIXES[0])
    try:
        if not target.exists():
            _compile(name, source, target)
        spec = importlib.util.spec_from_file_location(name, target)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    except (ImportError, OSError):
        return None
    return module


def _c_kernels(module) -> Kernels:
    """The nine kernels over the extension ``module``."""
    lib, ffi = module.lib, module.ffi
    c_pop, c_last = lib.chain_pop, lib.chain_last
    c_fill, c_drain = lib.chain_fill, lib.chain_drain
    c_alloc, c_link, c_claim = lib.sec_alloc, lib.sec_link, lib.sec_claim
    c_complete, c_free = lib.sec_complete, lib.sec_free
    from_buffer = ffi.from_buffer

    def buf(region):
        """The region's buffer as the C side sees it: exported once,
        dropped by :meth:`SharedRegion.release`."""
        cbuf = region.cbuf
        if cbuf is None:
            cbuf = region.cbuf = from_buffer(region._mv)
        return cbuf

    def pop(region, first, n):
        if not n:
            return NIL, first
        got = c_pop(buf(region), region.size, first, n)
        if got == _REFUSED:
            return _py_pop(region, first, n)
        return got >> 32, got & _M32

    def fill(region, first, n, data, bs):
        if c_fill(buf(region), region.size, first, n, data, len(data), bs) < 0:
            _py_fill(region, first, n, data, bs)

    def drain(region, first, n, length, bs):
        if length > region.size:  # no chain carries it: not worth a buffer
            return _py_drain(region, first, n, length, bs)
        out = bytearray(length)
        last = c_drain(buf(region), region.size, first, n, length, bs,
                       from_buffer(out))
        if last < 0:
            return _py_drain(region, first, n, length, bs)
        return last, bytes(out)

    def last(region, first, n):
        got = c_last(buf(region), region.size, first, n)
        return _py_last(region, first, n) if got < 0 else got

    # The sections: a refusal hands the same arguments to the reference.

    def alloc(view, nblk, length):
        region = view.region
        got = c_alloc(buf(region), region.size, nblk, length)
        if got == _REFUSED:
            return _alloc_message(view, nblk, length)
        return got >> 32, got & _M32

    def link(view, base, hdr, pid, length, first, nblk, stale=None):
        region = view.region
        if stale is None:
            got = c_link(buf(region), region.size, base, hdr, pid & _M32,
                         length, first, nblk, 0, 0, 0)
        else:
            got = c_link(buf(region), region.size, base, hdr, pid & _M32,
                         length, first, nblk, 1, *stale)
        if not got.ok:
            return _link_tail(view, base, hdr, pid, length, first, nblk, stale)
        return got.seqno, got.depth, got.rsteps

    def claim(view, base, desc, max_len):
        region = view.region
        got = c_claim(buf(region), region.size, base, desc,
                      _NO_LIMIT if max_len is None or max_len > _NO_LIMIT
                      else max_len)
        if got.msg == NIL:
            return _claim_next(view, base, desc, max_len)
        return got.msg, got.first, got.nblk, got.length, got.seqno, got.fcfs

    def complete(view, base, msg, unread, last, length):
        region = view.region
        got = c_complete(buf(region), region.size, base, msg, unread, last,
                         length)
        if not got.ok:
            return _complete_receive(view, base, msg, unread, last, length)
        if not got.n:
            return None
        return (got.head, got.n, got.depth, got.first, got.last, got.nblk,
                got.nbytes)

    def free(view, head, n, first, last, nblk, nbytes):
        region = view.region
        if c_free(buf(region), region.size, head, n, first, last, nblk,
                  nbytes) < 0:
            _free_chain(view, head, n, first, last, nblk, nbytes)

    return Kernels("c", pop, fill, drain, last,
                   alloc, link, claim, complete, free)


def _select(where: Path = _HERE) -> Kernels:
    """The C kernels if they build (or are built) in ``where``, else
    :data:`PYTHON`."""
    module = _build(where)
    return PYTHON if module is None else _c_kernels(module)


#: The kernels the message path calls (``ACTIVE.name``: ``"c"`` or
#: ``"python"``), and the C set, ``None`` where it could not be built.
ACTIVE = _select()
C = ACTIVE if ACTIVE is not PYTHON else None
