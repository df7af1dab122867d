"""The segment holds what the field-at-a-time path left — everything a
peer is promised.

A scripted program — three circuits opened (free-list FCFS, free-list
BROADCAST x2, ring with a BROADCAST and an FCFS reader), sends of 0 / 1
/ 10 / 16 / 256 / 2048 B over each, checks, receives, a refused receive
into a short buffer, a receiver joining late, a refused send on a
closed circuit, a close with unread messages — run one primitive at a
time through a ``DirectRunner``, with a digest of the segment after
every primitive (:func:`promised`):

* every byte outside the block pool, the words that hold a block
  *offset* masked — ``HDR.free_blk`` and ``MSG.first_blk`` (of every
  header: a freed one keeps its last chain's until it is reused);
* each live message's ``(nblk, payload read through its chain)``, per
  circuit in FIFO order;
* the free-block set, sorted, and its length.

*Which* blocks carry a message, and in what order the free list hands
them out, is not part of the segment format (DESIGN.md §4); field
values, store results, the slack nobody meant to write and every
payload byte a receiver can reach are.  The trail was recorded at
cc8178e — the parent of the commit that made the reap a splice, the
first to change the free list's order — with the function below, before
the first edit, and must hold.

The second half of the file pins the two rules that make whole-record
stores safe on real cores (docs/performance.md, "Host cost of the
message path"): every ``writer`` run is listed with the lock that
guards all of its words, and every lock-free function reads its commit
/ epoch word on its own before any record read.
"""

import ast
import re
import hashlib
import inspect
import sys

import pytest

from repro import ThreadRuntime
from repro.core import chains, ops, transport
from repro.core.errors import (
    BufferOverflowError,
    NotConnectedError,
    UnknownLNVCError,
)
from repro.core.inspect import check_invariants
from repro.core.layout import HDR, MPFConfig
from repro.core.protocol import BROADCAST, FCFS, NIL
from repro.core.structs import LNVC, MSG, RCUR, RECV, RSLOT
from repro.patterns import barrier
from repro.testing import DirectRunner, make_view

SIZES = (0, 1, 10, 16, 256, 2048)


def payload(size: int, salt: int) -> bytes:
    return bytes((salt + 7 * i) & 0xFF for i in range(size))


def script(view):
    """The program, one ``(label, op generator factory, refusal)`` step
    at a time; ``refusal`` is the error the step must raise, or None."""
    v = view
    ids: dict = {}

    def op(label, make, refusal=None):
        return label, make, refusal

    def opened(name, make):
        def run():
            ids[name] = yield from make()
        return run

    yield op("open f send", opened("f", lambda: ops.open_send(v, 0, "f")))
    yield op("open f recv", lambda: ops.open_receive(v, 1, "f", FCFS))
    yield op("open b send", opened("b", lambda: ops.open_send(v, 0, "b")))
    yield op("open b recv 1", lambda: ops.open_receive(v, 1, "b", BROADCAST))
    yield op("open b recv 2", lambda: ops.open_receive(v, 2, "b", BROADCAST))
    yield op("open r send", opened("r", lambda: ops.open_send(v, 0, "r")))
    yield op("open r recv 1", lambda: ops.open_receive(v, 1, "r", BROADCAST))
    yield op("open r recv 2", lambda: ops.open_receive(v, 2, "r", FCFS))
    for salt, name in enumerate("fbr"):
        for size in SIZES:
            yield op(f"send {name} {size}", lambda n=name, s=size, k=salt:
                     ops.message_send(v, 0, ids[n], payload(s, k)))
        for pid in (1, 2):
            if name == "f" and pid == 2:
                continue
            yield op(f"check {name} p{pid}", lambda n=name, p=pid:
                     ops.check_receive(v, p, ids[n]))
    # A late joiner on each BROADCAST circuit hears only what follows.
    yield op("late join b", lambda: ops.open_receive(v, 3, "b", BROADCAST))
    yield op("late join r", lambda: ops.open_receive(v, 3, "r", BROADCAST))
    yield op("send b late", lambda: ops.message_send(v, 0, ids["b"], b"late"))
    yield op("send r late", lambda: ops.message_send(v, 0, ids["r"], b"late"))
    yield op("short buffer f", lambda: ops.message_receive(
        v, 1, ids["f"], 0), None)
    yield op("short buffer f 2", lambda: ops.message_receive(
        v, 1, ids["f"], 0), BufferOverflowError)
    yield op("short buffer r", lambda: ops.message_receive(
        v, 1, ids["r"], 0), None)
    yield op("short buffer r 2", lambda: ops.message_receive(
        v, 1, ids["r"], 0), BufferOverflowError)
    for name, pids in (("f", (1,)), ("b", (1, 2)), ("r", (1, 2))):
        for _ in range(3):
            for pid in pids:
                yield op(f"recv {name} p{pid}", lambda n=name, p=pid:
                         ops.message_receive(v, p, ids[n]))
    yield op("recv b late", lambda: ops.message_receive(v, 3, ids["b"]))
    yield op("recv r late", lambda: ops.message_receive(v, 3, ids["r"]))
    yield op("not connected", lambda: ops.message_send(v, 5, ids["f"], b"x"),
             NotConnectedError)
    yield op("not connected r", lambda: ops.message_send(
        v, 5, ids["r"], b"x"), NotConnectedError)
    # Close f with two messages unread: the circuit is deleted and its
    # queue discarded; the stale identifier is then refused.
    yield op("close f recv", lambda: ops.close_receive(v, 1, ids["f"]))
    yield op("close f send", lambda: ops.close_send(v, 0, ids["f"]))
    yield op("send closed", lambda: ops.message_send(v, 0, ids["f"], b"x"),
             UnknownLNVCError)
    yield op("recv closed", lambda: ops.message_receive(v, 1, ids["f"]),
             UnknownLNVCError)
    yield op("check closed", lambda: ops.check_receive(v, 1, ids["f"]),
             UnknownLNVCError)
    for pid in (1, 2, 3):
        yield op(f"close b p{pid}", lambda p=pid:
                 ops.close_receive(v, p, ids["b"]))
        yield op(f"close r p{pid}", lambda p=pid:
                 ops.close_receive(v, p, ids["r"]))
    yield op("close b send", lambda: ops.close_send(v, 0, ids["b"]))
    yield op("close r send", lambda: ops.close_send(v, 0, ids["r"]))


def promised(view) -> str:
    """Digest of what the segment promises a peer (module docstring)."""
    r, lay, cfg = view.region, view.layout, view.cfg
    u32 = r.u32
    image = bytearray(r.read(0, r.size))

    def mask(off):
        image[off:off + 4] = bytes(4)

    mask(HDR.u32["free_blk"])
    for i in range(cfg.max_messages):
        mask(lay.msg_base + i * MSG.size + MSG.offsets["first_blk"])
    pool_end = lay.blk_base + cfg.n_blocks * lay.blk_stride
    digest = hashlib.sha256(image[:lay.blk_base] + image[pool_end:])

    live = []
    for slot in range(cfg.max_lnvcs):
        base = lay.lnvc_off(slot)
        if not LNVC.get(r, base, "in_use") or LNVC.get(r, base, "transport"):
            continue
        msg = LNVC.get(r, base, "fifo_head")
        while msg != NIL:
            left = MSG.get(r, msg, "length")
            blk, parts = MSG.get(r, msg, "first_blk"), []
            for _ in range(MSG.get(r, msg, "nblocks")):
                parts.append(r.read(blk + 4, min(cfg.block_size, left)))
                left -= len(parts[-1])
                blk = u32(blk)
            assert blk == NIL and left == 0
            live.append((slot, len(parts), b"".join(parts)))
            msg = MSG.get(r, msg, "next_msg")
    free, end = r.follow(u32(HDR.u32["free_blk"]), cfg.n_blocks)
    assert end == NIL
    digest.update(repr((live, len(free), sorted(free))).encode())
    return digest.hexdigest()[:12]


def run_script() -> list[tuple[str, str]]:
    """``[(label, promised(view) after the step)]``."""
    view = make_view(transports=(("r", "ring"),), ring_slots=16,
                     ring_slot_bytes=2048)
    runner = DirectRunner(view)
    trail = []
    for label, make, refusal in script(view):
        if refusal is None:
            runner.run(make())
        else:
            with pytest.raises(refusal):
                runner.run(make())
        check_invariants(view)
        trail.append((label, promised(view)))
    return trail


#: Recorded at cc8178e with ``run_script`` above.
DIGESTS = [('open f send', 'af61c9951ff1'),
 ('open f recv', 'db7c2b295613'),
 ('open b send', 'fce7391ebddc'),
 ('open b recv 1', 'f47dc1426917'),
 ('open b recv 2', 'a85a4b7ec565'),
 ('open r send', '987857a78a37'),
 ('open r recv 1', 'f97df3dd8def'),
 ('open r recv 2', '17e6efa317e5'),
 ('send f 0', '45f8b0d1c880'),
 ('send f 1', '4bbf35ecbcd9'),
 ('send f 10', '5fb7ef13c97c'),
 ('send f 16', '23cf4f041cd5'),
 ('send f 256', '865e623ba26d'),
 ('send f 2048', 'd1da26ba219a'),
 ('check f p1', 'd1da26ba219a'),
 ('send b 0', 'ff3102894c94'),
 ('send b 1', '9b7d722b5018'),
 ('send b 10', '8d3e21b137f1'),
 ('send b 16', '0da245771e6d'),
 ('send b 256', '335351af4b38'),
 ('send b 2048', '72c1dc652b6b'),
 ('check b p1', '72c1dc652b6b'),
 ('check b p2', '72c1dc652b6b'),
 ('send r 0', '056b347473fd'),
 ('send r 1', '7d75c3fa1b7a'),
 ('send r 10', '6a5c5f5afb40'),
 ('send r 16', '701ba25a53d8'),
 ('send r 256', '4842a6324799'),
 ('send r 2048', '8fb759835fef'),
 ('check r p1', '8fb759835fef'),
 ('check r p2', '8fb759835fef'),
 ('late join b', 'b83647bf8723'),
 ('late join r', '2dcdbf72110e'),
 ('send b late', 'c4e98270b2c8'),
 ('send r late', '629e5c430309'),
 ('short buffer f', 'b8796c4e92cb'),
 ('short buffer f 2', 'b8796c4e92cb'),
 ('short buffer r', '4f4c89374a88'),
 ('short buffer r 2', '4f4c89374a88'),
 ('recv f p1', 'eb5dd59190cd'),
 ('recv f p1', '7ad199ffea6f'),
 ('recv f p1', '6a8a8543cd39'),
 ('recv b p1', '4cf2372ea946'),
 ('recv b p2', 'b6c7a09bf1de'),
 ('recv b p1', 'c0b33d571ad0'),
 ('recv b p2', '589dca9a11db'),
 ('recv b p1', 'bb1706f9c71d'),
 ('recv b p2', 'e2652f3942a2'),
 ('recv r p1', 'aaefee394f12'),
 ('recv r p2', '25059016fbe1'),
 ('recv r p1', '4c677780fb14'),
 ('recv r p2', '4cf6bccd0998'),
 ('recv r p1', '97793eba8aa6'),
 ('recv r p2', 'a1a43e86b0ee'),
 ('recv b late', 'cf0fb68c9879'),
 ('recv r late', '800e94fabc0b'),
 ('not connected', '800e94fabc0b'),
 ('not connected r', '800e94fabc0b'),
 ('close f recv', 'cc67bf08249f'),
 ('close f send', '3a66c438ff67'),
 ('send closed', '3a66c438ff67'),
 ('recv closed', '3a66c438ff67'),
 ('check closed', '3a66c438ff67'),
 ('close b p1', '1bf88d1a8080'),
 ('close r p1', '93d69bcaab3c'),
 ('close b p2', '70ff03424915'),
 ('close r p2', '5a7760db34c2'),
 ('close b p3', '16607ea70401'),
 ('close r p3', 'd3ca61684afd'),
 ('close b send', '406a11eb8912'),
 ('close r send', 'e578eb9f187d')]


def test_every_primitive_leaves_the_parents_bytes():
    trail = run_script()
    assert len(trail) == len(DIGESTS)
    for (label, got), (want_label, want) in zip(trail, DIGESTS):
        assert (label, got) == (want_label, want), (
            f"first segment difference after {label!r}")


@pytest.mark.parametrize("size", [16, 256, 2048])
def test_a_freed_chain_is_handed_out_again_in_the_order_it_was_filled(size):
    """The order the splice creates (and the trail above does not pin):
    send, receive, send again → the same blocks in the same order."""
    view = make_view()
    r, runner = view.region, DirectRunner(view)
    sid = runner.run(ops.open_send(view, 0, "c"))
    runner.run(ops.open_receive(view, 1, "c", FCFS))
    # leave the list in no particular order first
    for n in (7, 300, 45):
        runner.run(ops.message_send(view, 0, sid, bytes(n)))
    for _ in range(3):
        runner.run(ops.message_receive(view, 1, sid))

    def send():
        runner.run(ops.message_send(view, 0, sid, payload(size, 3)))
        msg = LNVC.get(r, view.layout.lnvc_off(0), "fifo_head")
        return r.follow(MSG.get(r, msg, "first_blk"),
                        MSG.get(r, msg, "nblocks"))

    first = send()
    assert runner.run(ops.message_receive(view, 1, sid)) == payload(size, 3)
    assert send() == first and first[1] == NIL
    assert len(first[0]) == -(-size // view.cfg.block_size)


# ---------------------------------------------------------------------------
# Rule 1: a stored run covers only words whose every writer holds the lock
# the storing section holds.
# ---------------------------------------------------------------------------

#: Who may write each word the hot path stores, by lock: "circuit" is the
#: LNVC's own lock, "alloc" is ``ALLOC_LOCK``; "reader" words belong to
#: one BROADCAST reader (its cursor line) and need no lock.  Words next
#: to a run that have *another* writer are named too, so that a run
#: grown over them fails here: ``live_lnvcs`` is counted under
#: ``GLOBAL_LOCK``, a slot's ``seq`` is the commit word and is stored
#: last and alone.  (A circuit's words are also written while it is
#: created, under ``GLOBAL_LOCK`` alone — before its identifier exists,
#: so before any lock section can be about to store to them.)
OWNER = {
    **dict.fromkeys(LNVC.offsets, "circuit"),
    **dict.fromkeys(RECV.offsets, "circuit"),
    **dict.fromkeys(MSG.offsets, "circuit"),
    **{f: "alloc" for f in ("free_send", "free_recv", "free_msg", "free_blk",
                            "live_msgs", "live_blocks", "live_bytes",
                            "hwm_live_bytes", "hwm_live_msgs")},
    "live_lnvcs": "global",
    **{f: "global" for f in ("total_sends", "total_receives",
                             "total_bytes_sent", "total_bytes_received")},
    "RSLOT.seq": "commit word",
    **{f"RSLOT.{f}": "circuit"
       for f in ("length", "seqno", "sender", "state", "busy")},
    **{f"RCUR.{f}": "reader" for f in RCUR.offsets},
}

#: Every stored run: its record, first and last field, the lock its
#: storing sections hold, and the functions that store it.
GUARDS = {
    "fifo": (LNVC, "nmsgs", "fcfs_head", "circuit",
             {"_reap_head", "_link_tail"}),
    "seq_hwm": (LNVC, "seq", "hwm_nmsgs", "circuit",
                {"_link_tail", "_ring_fill"}),
    "sent": (LNVC, "bytes_sent", "bytes_sent_hi", "circuit",
             {"_link_tail", "_ring_fill"}),
    "traffic": (LNVC, "nrecvs", "bytes_received_hi", "circuit",
                {"_complete_receive", "_ring_complete"}),
    "cursor": (RECV, "head", "nreads", "circuit", {"_claim_next"}),
    "msg": (MSG, "length", "sender", "circuit", {"_link_tail"}),
    "pins": (MSG, "bcast_pending", "flags", "circuit",
             {"_retire_check", "_claim_next"}),
    "pool": (HDR, "free_msg", "live_bytes", "alloc",
             {"_alloc_message", "_free_chain"}),
    "hwm": (HDR, "hwm_live_bytes", "hwm_live_msgs", "alloc",
            {"_alloc_message"}),
    "rslot_body": (RSLOT, "length", "busy", "circuit", {"_ring_fill"}),
    "rslot_pins": (RSLOT, "state", "busy", "circuit",
                   {"_ring_retire_check", "_ring_claim"}),
    "rcur": (RCUR, "next_seq", "nreads", "reader", {"_ring_cursor_take"}),
}


def _fields(record, first, last):
    table = ({**record.u32, **record.u64} if record is HDR
             else record.offsets)
    lo, hi = table[first], table[last]
    prefix = f"{record.name}." if record in (RSLOT, RCUR) else ""
    return [prefix + f for f, off in table.items() if lo <= off <= hi]


def test_every_stored_run_is_named_with_its_lock():
    assert set(ops.STORES) == set(GUARDS)
    for name, (record, first, last, lock, _) in GUARDS.items():
        assert ops.STORES[name].format == record.run(first, last).format
        owners = {OWNER[f] for f in _fields(record, first, last)}
        assert owners == {lock}, (name, owners)


def _functions(module):
    tree = ast.parse(inspect.getsource(module))
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def _attrs(node, prefix):
    return [n for n in ast.walk(node)
            if isinstance(n, ast.Attribute) and n.attr.startswith(prefix)]


def test_no_store_outside_the_table():
    """``region.writer`` is called in one place — the loop over
    ``STORES`` in ``MPFView.__init__`` — and each bound ``_wr_<run>`` is
    used by exactly the functions the table names (the Python lock
    sections of ``core/chains.py`` among them; their C twins store the
    same words under the same locks)."""
    users: dict = {}
    writer_calls = []
    for module in (ops, transport, chains):
        for fn in _functions(module):
            nested = {id(n) for inner in ast.walk(fn) if inner is not fn
                      and isinstance(inner, ast.FunctionDef)
                      for n in ast.walk(inner)}
            for node in ast.walk(fn):
                if id(node) in nested or not isinstance(node, ast.Attribute):
                    continue
                if node.attr == "writer":
                    writer_calls.append(fn.name)
                elif node.attr.startswith("_wr_"):
                    users.setdefault(node.attr[4:], set()).add(fn.name)
    assert writer_calls == ["__init__"]
    assert users == {name: g[4] for name, g in GUARDS.items()}


def test_a_padded_record_cannot_be_stored(view):
    """Pad bytes would store zeros over the words a pick skips."""
    with pytest.raises(ValueError):
        view.region.writer(ops.READS["peek"])
    for run in ops.STORES.values():
        assert "x" not in run.format


# ---------------------------------------------------------------------------
# Rule 2: a lock-free reader takes its commit / epoch word as a word read of
# its own, before the record read of what that word vouches for.
# ---------------------------------------------------------------------------


def _first_line(fn, match):
    lines = [n.lineno for n in ast.walk(fn) if match(n)]
    assert lines, ast.dump(fn)[:80]
    return min(lines)


def _u32_of(const):
    """Matches ``u32(... + <const>)`` / ``<x>.u32(... + <const>)``."""
    def match(n):
        if not isinstance(n, ast.Call):
            return False
        f = n.func
        name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", "")
        return name == "u32" and any(
            isinstance(a, ast.Name) and a.id == const
            for arg in n.args for a in ast.walk(arg))
    return match


def _reader(*names):
    return lambda n: isinstance(n, ast.Attribute) and n.attr in names


def test_lock_free_reads_take_the_commit_word_first():
    fns = {fn.name: fn for m in (ops, transport, chains)
           for fn in _functions(m)}
    # cached_recv: the connection epoch, then (in_use, gen).
    fn = fns["cached_recv"]
    assert _first_line(fn, _u32_of("_L_CONN_EPOCH")) < _first_line(
        fn, _reader("_rd_live"))
    assert not _attrs(fn, "_wr_")
    # The lock-free BROADCAST take (its reference; the C kernel is
    # below): a cache hit first, then the reader's descriptor, and its
    # cursor take stores nothing of its own.
    fn = fns["_ring_take"]
    assert _first_line(fn, _reader("cached_recv")) < _first_line(
        fn, _reader("_rd_recv"))
    assert not _attrs(fn, "_wr_")
    # The cursor take: the slot's commit word, then the fields it
    # publishes; until then only the reader's own records (its
    # descriptor, its cursor line) are read.
    fn = fns["_ring_cursor_take"]
    commit = _first_line(fn, _u32_of("_RS_SEQ"))
    assert commit < _first_line(
        fn, _reader("_rd_rslot", "_rd_rslot_msg", "_rd_rslot_pins"))
    stores = sorted((n.lineno, n.attr) for n in _attrs(fn, "_wr_"))
    # the only run it stores is the reader's own
    assert [a for _, a in stores] == ["_wr_rcur"]
    assert commit < stores[0][0]
    # The generator takes before it locks anything.
    fn = fns["ring_receive"]
    assert _first_line(fn, lambda n: isinstance(n, ast.Attribute)
                       and n.attr == "ring_take") < _first_line(
        fn, lambda n: isinstance(n, ast.Attribute) and n.attr == "_acq")


def _c_function(source, name):
    """The body of the C function ``name`` in ``source``."""
    start = re.search(rf"^\w[^\n]* {name}\(", source, re.M).start()
    return source[start:source.index("\n}\n", start)]


def test_the_c_commit_word_is_a_release_store_and_an_acquire_load():
    """The C side of rule 2, where the interpreter lock is released: the
    send's commit stores ``seq`` with release order and stores nothing
    before it, the cursor take (the lock-free take's, and the locked
    BROADCAST claim's) loads it with acquire order before it reads the
    slot's other words, and no other access to a slot's ``seq`` in the
    ring kernels is atomic or needs to be (the rest hold the lock)."""
    source = chains._SOURCE.read_text()
    commit = _c_function(source, "ring_commit")
    assert commit.count("__atomic_store_n(") == 1
    assert "__ATOMIC_RELEASE" in commit
    assert commit.index("__atomic_store_n(") < commit.index("ring_retire(")
    take = _c_function(source, "cursor_take")
    assert take.count("__atomic_load_n(") == 1
    assert "__ATOMIC_ACQUIRE" in take
    load = take.index("__atomic_load_n(")
    assert load < take.index("S_LENGTH") and load < take.index("S_SEQNO")
    assert load < take.index("store_link(")
    for name in ("ring_take", "ring_claim"):
        assert "cursor_take(" in _c_function(source, name)
    assert "S_SEQ)" not in _c_function(source, "ring_take")
    assert source.count("__atomic_") == 2


def test_the_poll_peek_holds_the_circuit_lock():
    """A poll walk (``PollWalk``, or the C kernel in its place) peeks
    four words of the LNVC record in one read; it is not a lock-free
    reader: its section step follows the acquire in each head, a poll
    section's and a free-list check's."""
    for builder, steps in (("_make_poll_section", ["S_ACQ", "S_CALL"]),
                           ("_freelist_check", ["S_CHARGE", "S_ACQ",
                                                "S_CALL"])):
        fn = next(f for f in _functions(ops) if f.name == builder)
        heads = [n for n in ast.walk(fn) if isinstance(n, ast.Tuple) and any(
            isinstance(e, ast.Tuple) and isinstance(e.elts[0], ast.Name)
            and e.elts[0].id == "S_CALL" for e in n.elts)]
        assert len(heads) == 1
        order = [e.elts[0].id for e in heads[0].elts
                 if isinstance(e, ast.Tuple)]
        assert order == steps


def test_adjacent_words_keep_their_own_writers():
    """Stress for rule 1 on real threads: one worker opens and closes
    circuits (``live_lnvcs``, next to the pool words, under
    ``GLOBAL_LOCK``; the neighbours' ``next`` links and ``conn_epoch``
    under the circuit lock) while two stream messages over both
    transports (the pool run under ``ALLOC_LOCK``, the LNVC, MSG, RECV
    and slot runs under the circuit lock).  A run stored over a word
    with another writer loses that writer's update: the counts below
    would not add up, or ``check_invariants`` would object."""
    rounds, churn = 300, 60

    def sender(env):
        f = yield from env.open_send("f")
        r = yield from env.open_send("r")
        yield from barrier(env, "go", 3)
        for i in range(rounds):
            yield from env.message_send(f, bytes([i & 0xFF]) * 16)
            yield from env.message_send(r, bytes([i & 0xFF]) * 16)
            if i % 16 == 15:
                yield from barrier(env, f"lap{i}", 2)
        yield from barrier(env, "done", 3)
        yield from env.close_send(f)
        yield from env.close_send(r)

    def receiver(env):
        f = yield from env.open_receive("f", FCFS)
        r = yield from env.open_receive("r", BROADCAST)
        yield from barrier(env, "go", 3)
        for i in range(rounds):
            assert (yield from env.message_receive(f)) == bytes([i & 0xFF]) * 16
            assert (yield from env.message_receive(r)) == bytes([i & 0xFF]) * 16
            if i % 16 == 15:
                yield from barrier(env, f"lap{i}", 2)
        yield from barrier(env, "done", 3)
        yield from env.close_receive(f)
        yield from env.close_receive(r)

    def churner(env):
        # Makes circuits of its own, and joins and leaves the streaming
        # ones as a BROADCAST listener that never reads: what was sent
        # meanwhile owes it a read until its close sheds the debt.
        yield from barrier(env, "go", 3)
        for i in range(churn):
            own = yield from env.open_send(f"own{i % 3}")
            f = yield from env.open_receive("f", BROADCAST)
            r = yield from env.open_receive("r", BROADCAST)
            yield from env.close_receive(r)
            yield from env.close_receive(f)
            yield from env.close_send(own)
        yield from barrier(env, "done", 3)

    # Headers for every message of the stream: what is sent while the
    # listener is attached stays queued until it leaves, and a thread
    # can be kept off the CPU for many laps.
    cfg = MPFConfig(max_lnvcs=16, max_processes=4, max_messages=rounds + 64,
                    message_pool_bytes=1 << 16, transports=(("r", "ring"),),
                    ring_slots=8, ring_slot_bytes=64)
    before = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        rt = ThreadRuntime(join_timeout=60)
        result = rt.run([sender, receiver, churner], cfg=cfg)
    finally:
        sys.setswitchinterval(before)
    check_invariants(rt.last_view)
    header = result.header
    assert header["live_lnvcs"] == header["live_msgs"] == 0
    assert header["live_blocks"] == header["live_bytes"] == 0
    # the streams, plus the barriers' own messages on their circuits
    assert header["total_sends"] >= 2 * rounds
    assert header["total_receives"] >= 2 * rounds


if __name__ == "__main__":
    import pprint
    pprint.pprint(run_script(), width=78)
