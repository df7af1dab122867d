"""The ring kernels against their Python references.

``repro.core.chains`` runs the per-message sections of the ring
transport — the send's claim and fill, its commit, the lock-free
BROADCAST take, the locked claim and the completion — as one C call each
where it could build the library, with a Python reference for the rest.
Each kernel is run here, as the C build and as the reference, on twin
copies of a segment a small program left — one ring circuit with a small
ring, up to three receivers of either protocol, a few messages sent and
some read — with the section's own prerequisites done by the reference
(a fill before its commit, a claim before its completion, the
connection cache warm before a take), and then, or not, one word of
the ring's records corrupted.  It must return what the reference
returns, or raise the same exception with the same message, and leave
every byte of the segment as the reference leaves it.
"""

from hypothesis import assume, given, settings, strategies as st

from repro.core import chains, ops
from repro.core.errors import NotConnectedError
from repro.core.ops import MPFView
from repro.core.protocol import BROADCAST, FCFS, NIL
from repro.core.region import SharedRegion
from repro.core.structs import (
    LNVC,
    RCUR,
    RECV,
    RING,
    RS_RETIRED,
    RSLOT,
    RSLOT_PENDING_OFF,
)
from repro.testing import DirectRunner, make_view

KERNELS = ("ring_fill", "ring_commit", "ring_take", "ring_claim",
           "ring_complete")
RECEIVERS = ((), (FCFS,), (BROADCAST,), (FCFS, FCFS), (FCFS, BROADCAST),
             (BROADCAST, BROADCAST), (BROADCAST, FCFS, BROADCAST))
SLOTS, SLOT_BYTES = 4, 64
TARGETS = ("lnvc.ring", "lnvc.conn_epoch", "lnvc.in_use", "lnvc.gen",
           "lnvc.nmsgs", "ring.next_write", "ring.fcfs_next",
           "ring.reader_mask", "cursor.next_seq", "slot.seq", "slot.length",
           "slot.state", "slot.busy", "slot.pending", "recv.head",
           "recv.proto")


@st.composite
def any_ring_section(draw):
    sizes = draw(st.lists(st.integers(0, SLOT_BYTES), min_size=0,
                          max_size=7))
    corrupt = draw(st.one_of(st.none(), st.tuples(
        st.sampled_from(TARGETS), st.integers(0, 7),
        st.integers(0, N_BAD - 1))))
    return (draw(st.sampled_from(KERNELS)), draw(st.sampled_from(RECEIVERS)),
            sizes, draw(st.integers(0, 6)), draw(st.integers(0, SLOT_BYTES)),
            draw(st.one_of(st.none(), st.integers(-1, SLOT_BYTES + 1))),
            draw(st.integers(1, 3)), draw(st.booleans()), corrupt)


def _full(view, base):
    """The ring of the circuit at ``base`` has no slot to claim."""
    r, lay = view.region, view.layout
    ring = LNVC.get(r, base, "ring")
    w = RING.get(r, ring, "next_write")
    sl = lay.ring_slot_off(lay.ring_index(ring), w % view.cfg.ring_slots)
    return (RSLOT.get(r, sl, "seq")
            and not RSLOT.get(r, sl, "state") & RS_RETIRED)


def _program(receivers, sizes, reads):
    """The segment a program left: its view, the circuit's LNVC offset
    and id.  Receiver ``k`` is pid ``k + 1``; pid 1 reads ``reads``
    times, interleaved with the sends, and every receiver's connection
    is in the cache."""
    view = make_view(max_lnvcs=2, max_processes=5, transport="ring",
                     ring_slots=SLOTS, ring_slot_bytes=SLOT_BYTES)
    runner = DirectRunner(view)
    sid = runner.run(ops.open_send(view, 0, "c"))
    base = view.layout.lnvc_off(0)
    for pid, proto in enumerate(receivers, 1):
        runner.run(ops.open_receive(view, pid, "c", proto))
    left = reads if receivers else 0
    for salt, size in enumerate(sizes):
        if not _full(view, base):
            runner.run(ops.message_send(view, 0, sid, bytes([salt]) * size))
        if left and salt % 2 and runner.run(ops.check_receive(view, 1, sid)):
            runner.run(ops.message_receive(view, 1, sid))
            left -= 1
    for pid in range(1, len(receivers) + 1):
        view.recv_conn(pid, sid)
    return view, base, sid


def _kernel_args(kernel, view, base, sid, pid, size, max_len, flag):
    """The arguments of ``kernel`` on ``view``, its prerequisites done by
    the reference; ``None`` where the program leaves nothing to do.
    ``flag``: a completion is overtaken by another receiver's whole
    receive first."""
    k = chains.PYTHON
    if kernel == "ring_fill":
        return base, 5, bytes(range(size))
    if kernel == "ring_commit":
        got = k.ring_fill(view, base, 0, bytes(size))
        if got is None:
            return None
        seq, sl, _, _ = got
        return base, sl, seq
    if kernel == "ring_take":
        return base, pid, sid, max_len
    try:
        desc, _ = view.recv_conn(pid, sid)
    except NotConnectedError:  # no such receiver in this program
        return None
    if kernel == "ring_claim":
        return base, desc, max_len
    got = k.ring_claim(view, base, desc, None)
    if got is None:
        return None
    if flag:
        runner = DirectRunner(view)
        other = pid % 3 + 1
        try:
            if runner.run(ops.check_receive(view, other, sid)):
                runner.run(ops.message_receive(view, other, sid))
        except NotConnectedError:
            pass
    sl, length, _, unread, idx = got
    return base, sl, unread, idx, length


def _corrupt(view, base, target, pick, value):
    """Store one of a few bad values over the word ``target`` names."""
    r, lay = view.region, view.layout
    ring = LNVC.get(r, base, "ring")
    ridx = lay.ring_index(ring)
    record, _, field = target.partition(".")
    if record == "lnvc":
        off = base + LNVC.offsets[field]
    elif record == "ring":
        off = ring + RING.offsets[field]
    elif record == "cursor":
        off = lay.ring_cur_off(ridx, pick % 3) + RCUR.offsets[field]
    elif record == "slot":
        sl = lay.ring_slot_off(ridx, pick % view.cfg.ring_slots)
        off = (sl + RSLOT_PENDING_OFF if field == "pending"
               else sl + RSLOT.offsets[field])
    else:
        desc = LNVC.get(r, base, "recv_list")
        for _ in range(pick % 3):
            if desc == NIL:
                return
            desc = RECV.get(r, desc, "next")
        if desc == NIL:
            return
        off = desc + RECV.offsets[field]
    r.set_u32(off, _bad_values(view, r.u32(off))[value % N_BAD])


def _bad_values(view, old):
    """What a corrupt word may hold: no offset, one past or straddling
    the end of the region, a small number, a reader bit too large, its
    old value moved by one, a ring control block before the pool."""
    size = view.region.size
    return (NIL, size + 8, size - 2, size - 12, 0, 1, 31, 32, old + 1,
            old - 1, view.layout.ring_ctrl_base - RING.size)


N_BAD = 11


def _outcome(call):
    try:
        return "ok", call()
    except Exception as exc:  # the exception is the result compared
        return type(exc), str(exc)


def _same(c_kernels, kernel, receivers, sizes, reads, size, max_len, pid,
          flag, corrupt):
    """Run ``kernel`` as ``c_kernels`` and as the reference on twin
    copies of the segment the case leaves and hold the two to the same
    outcome and the same bytes; False where the case leaves nothing to
    do."""
    view, base, sid = _program(receivers, sizes, reads)
    args = _kernel_args(kernel, view, base, sid, pid, size, max_len, flag)
    if args is None:
        return False
    if corrupt is not None:
        _corrupt(view, base, *corrupt)
    image = view.region.read(0, view.region.size)
    after = {}
    for kernels in (c_kernels, chains.PYTHON):
        twin = MPFView(SharedRegion(bytearray(image)), view.layout, view.costs)
        twin._recv_cache.update(view._recv_cache)
        after[kernels.name] = (
            _outcome(lambda: getattr(kernels, kernel)(twin, *args)),
            twin.region.read(0, twin.region.size))
    assert after["c"][0] == after["python"][0], (kernel, corrupt)
    assert after["c"][1] == after["python"][1], (kernel, corrupt)
    return True


@given(any_ring_section())
@settings(max_examples=800, deadline=None)
def test_c_ring_kernels_match_the_python_reference(c_kernels, case):
    assume(_same(c_kernels, *case))


#: A program whose segment has every kernel's prerequisites: two
#: BROADCAST readers and an FCFS one, three messages queued in four
#: slots, one of them read by the first reader.
FULL = ((BROADCAST, FCFS, BROADCAST), (3, 0, 64), 1)


def test_c_ring_kernels_match_the_python_reference_on_every_corruption(
        c_kernels):
    """Every kernel, every target word and every bad value, each
    receiver: the corruptions the property above samples, all of them —
    so an access outside the region shows on every run (``make asan``)."""
    receivers, sizes, reads = FULL
    ran = 0
    for kernel in KERNELS:
        for pid in (1, 2, 3):
            for target in TARGETS:
                for value in range(N_BAD):
                    ran += _same(c_kernels, kernel, receivers, sizes, reads,
                                 9, None, pid, pid == 3, (target, pid, value))
    assert ran == len(KERNELS) * 3 * len(TARGETS) * N_BAD


def test_c_fcfs_claim_past_messages_no_fcfs_reader_is_owed(c_kernels):
    """An FCFS reader that joins after BROADCAST-only messages: its claim
    scans past them, finds nothing and stores the shared cursor where
    its scan stopped — the C kernel's own answer, as the reference's."""
    view = make_view(max_lnvcs=2, max_processes=3, transport="ring",
                     ring_slots=SLOTS, ring_slot_bytes=SLOT_BYTES)
    runner = DirectRunner(view)
    sid = runner.run(ops.open_send(view, 0, "c"))
    runner.run(ops.open_receive(view, 1, "c", BROADCAST))
    for salt in range(2):
        runner.run(ops.message_send(view, 0, sid, bytes([salt]) * 8))
    runner.run(ops.open_receive(view, 2, "c", FCFS))
    desc, _ = view.recv_conn(2, sid)
    base = view.layout.lnvc_off(0)
    image = view.region.read(0, view.region.size)
    after = {}
    for kernels in (c_kernels, chains.PYTHON):
        twin = MPFView(SharedRegion(bytearray(image)), view.layout, view.costs)
        after[kernels.name] = (
            _outcome(lambda: kernels.ring_claim(twin, base, desc, None)),
            twin.region.read(0, twin.region.size))
    assert after["c"] == after["python"]
    assert after["c"][0] == ("ok", None)
    ring = LNVC.get(view.region, base, "ring")
    assert RING.get(SharedRegion(bytearray(after["c"][1])), ring,
                    "fcfs_next") == 2
