"""The segment is byte-for-byte what the field-at-a-time path left.

A scripted program — three circuits opened (free-list FCFS, free-list
BROADCAST x2, ring with a BROADCAST and an FCFS reader), sends of 0 / 1
/ 10 / 16 / 256 / 2048 B over each, checks, receives, a refused receive
into a short buffer, a receiver joining late, a refused send on a
closed circuit, a close with unread messages — run one primitive at a
time through a ``DirectRunner``; ``sha256(region)`` after every
primitive was recorded at 40d5717 (the parent of the commit that made
the hot path read and store whole records) before the first edit, and
must hold.  Every region byte a peer could read is therefore the byte
it read before: field values, store results, and the slack nobody
meant to write.

The second half of the file pins the two rules that make whole-record
stores safe on real cores (docs/performance.md, "Host cost of the
message path"): every ``writer`` run is listed with the lock that
guards all of its words, and every lock-free function reads its commit
/ epoch word on its own before any record read.
"""

import ast
import hashlib
import inspect
import sys

import pytest

from repro import ThreadRuntime
from repro.core import ops, transport
from repro.core.errors import (
    BufferOverflowError,
    NotConnectedError,
    UnknownLNVCError,
)
from repro.core.inspect import check_invariants
from repro.core.layout import HDR, MPFConfig
from repro.core.protocol import BROADCAST, FCFS
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


def run_script() -> list[tuple[str, str]]:
    """``[(label, sha256(region) after the step)]``."""
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
        trail.append((label, hashlib.sha256(
            view.region.read(0, view.region.size)).hexdigest()[:12]))
    return trail


#: Recorded at 40d5717 with ``run_script`` above.
DIGESTS = [('open f send', '40a7d78a7f7a'),
 ('open f recv', 'b37924847f89'),
 ('open b send', 'c6f7ef884b67'),
 ('open b recv 1', 'a33f3f87e206'),
 ('open b recv 2', '6a16249a5933'),
 ('open r send', 'b006713063d0'),
 ('open r recv 1', 'ef61f04c60fb'),
 ('open r recv 2', '6ed5691a6302'),
 ('send f 0', 'bfeed9412856'),
 ('send f 1', 'e52b6eabb4c3'),
 ('send f 10', 'd68d6ae92a89'),
 ('send f 16', '57575a30f19b'),
 ('send f 256', '059b67a1f5cf'),
 ('send f 2048', '76adfce9e14a'),
 ('check f p1', '76adfce9e14a'),
 ('send b 0', '23458c9e17a6'),
 ('send b 1', '55c7ca2a9173'),
 ('send b 10', '44ea87036efb'),
 ('send b 16', '0f96459abd82'),
 ('send b 256', '2bb7cf6504f3'),
 ('send b 2048', 'c06c199fdde3'),
 ('check b p1', 'c06c199fdde3'),
 ('check b p2', 'c06c199fdde3'),
 ('send r 0', '87e3d93aff9c'),
 ('send r 1', '726022047731'),
 ('send r 10', '7918de19b316'),
 ('send r 16', '5534191344a4'),
 ('send r 256', 'b277cbcaf204'),
 ('send r 2048', '2335db628d14'),
 ('check r p1', '2335db628d14'),
 ('check r p2', '2335db628d14'),
 ('late join b', 'ae45ed2fddbd'),
 ('late join r', '52146e8cc24e'),
 ('send b late', '45888248d83e'),
 ('send r late', '8c8e148df488'),
 ('short buffer f', '81e8df89206c'),
 ('short buffer f 2', '81e8df89206c'),
 ('short buffer r', '3504c70f9869'),
 ('short buffer r 2', '3504c70f9869'),
 ('recv f p1', 'bd3eb40abb62'),
 ('recv f p1', '14e92753cae1'),
 ('recv f p1', '3cdee595478c'),
 ('recv b p1', '56b58e745de8'),
 ('recv b p2', 'fbaa064d367c'),
 ('recv b p1', '28e83bbed71f'),
 ('recv b p2', '632d8ab421af'),
 ('recv b p1', '54f01ee7758d'),
 ('recv b p2', 'f5d747f514d8'),
 ('recv r p1', '69ed9f54862b'),
 ('recv r p2', 'e8418a88222b'),
 ('recv r p1', '3c9de7c303ab'),
 ('recv r p2', '2d60e15e141d'),
 ('recv r p1', '9a60b9bd86bb'),
 ('recv r p2', '0bf5537ed6eb'),
 ('recv b late', 'e32b7f6eee57'),
 ('recv r late', 'dac3ecff1d91'),
 ('not connected', '35f473495f04'),
 ('not connected r', '35f473495f04'),
 ('close f recv', '446d56e45b64'),
 ('close f send', '780880dbc69c'),
 ('send closed', '420995eae6bd'),
 ('recv closed', '420995eae6bd'),
 ('check closed', '420995eae6bd'),
 ('close b p1', '51e8e9964706'),
 ('close r p1', '2fc5191a4bc5'),
 ('close b p2', '19875405a637'),
 ('close r p2', '211aad99edcf'),
 ('close b p3', 'ca78fa6085f0'),
 ('close r p3', 'e9d5c3cf3fc3'),
 ('close b send', '24a220afeff8'),
 ('close r send', '2b114c26cbd6')]


def test_every_primitive_leaves_the_parents_bytes():
    trail = run_script()
    assert len(trail) == len(DIGESTS)
    for (label, got), (want_label, want) in zip(trail, DIGESTS):
        assert (label, got) == (want_label, want), (
            f"first segment difference after {label!r}")


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
                {"_link_tail", "ring_send"}),
    "sent": (LNVC, "bytes_sent", "bytes_sent_hi", "circuit",
             {"_freelist_send", "ring_send"}),
    "traffic": (LNVC, "nrecvs", "bytes_received_hi", "circuit",
                {"_freelist_receive", "ring_receive"}),
    "cursor": (RECV, "head", "nreads", "circuit", {"_freelist_receive"}),
    "msg": (MSG, "length", "sender", "circuit", {"_link_tail"}),
    "pins": (MSG, "bcast_pending", "flags", "circuit",
             {"_retire_check", "_freelist_receive"}),
    "pool": (HDR, "free_msg", "live_bytes", "alloc",
             {"_freelist_send", "_free_chain"}),
    "hwm": (HDR, "hwm_live_bytes", "hwm_live_msgs", "alloc",
            {"_freelist_send"}),
    "rslot_body": (RSLOT, "length", "busy", "circuit", {"ring_send"}),
    "rslot_pins": (RSLOT, "state", "busy", "circuit",
                   {"ring_retire_check", "ring_receive"}),
    "rcur": (RCUR, "next_seq", "nreads", "reader", {"ring_receive"}),
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
    used by exactly the functions the table names."""
    users: dict = {}
    writer_calls = []
    for module in (ops, transport):
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
    fns = {fn.name: fn for m in (ops, transport) for fn in _functions(m)}
    # cached_recv: the connection epoch, then (in_use, gen).
    fn = fns["cached_recv"]
    assert _first_line(fn, _u32_of("_L_CONN_EPOCH")) < _first_line(
        fn, _reader("_rd_live"))
    assert not _attrs(fn, "_wr_")
    # ring_receive's BROADCAST fast path: the slot's commit word, then
    # the fields it publishes; until then only the reader's own records
    # (its descriptor, its cursor line) are read.
    fn = fns["ring_receive"]
    commit = _first_line(fn, _u32_of("_RS_SEQ"))
    assert commit < _first_line(
        fn, _reader("_rd_rslot", "_rd_rslot_msg", "_rd_rslot_pins"))
    locked = _first_line(fn, lambda n: isinstance(n, ast.Attribute)
                         and n.attr == "_acq")
    stores = sorted((n.lineno, n.attr) for n in _attrs(fn, "_wr_"))
    # the only run stored before the first Acquire is the reader's own
    assert [a for line, a in stores if line < locked] == ["_wr_rcur"]
    assert commit < stores[0][0]


def test_the_poll_peek_holds_the_circuit_lock():
    """``_walk`` peeks four words of the LNVC record in one read; it is
    not a lock-free reader: its section step follows the acquire."""
    fn = next(f for f in _functions(ops) if f.name == "head")
    ret = next(n for n in ast.walk(fn) if isinstance(n, ast.Return))
    order = [e.elts[0].id for e in ret.value.elts if isinstance(e, ast.Tuple)]
    assert order == ["S_ACQ", "S_CALL"]


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
