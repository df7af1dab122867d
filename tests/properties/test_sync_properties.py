"""The compiled sync and effect loop against the Python reference.

``runtime/sync.c`` (a ``ProcSync`` handle and ``drive``) is held to the
Python ``ProcSync`` methods and the Python ``drive`` on generated effect
programs — sections among them, whose calls jump, bail (perhaps with a
lock held) or raise, and whose steps may carry an opcode no interpreter
knows: the same return value or error, counters, held list, lock states
and mapping bytes (lock words included: both syncs write the owner's),
with and without a recorder (which runs the Python ``drive`` over the C
handle's four methods).  Then two threads pass a token over one channel
through each, and the counter identities hold.  Receive and check
programs over a real segment run their sections' calls in C and again
as their Python bodies (the check's on ``engine.c``'s loop too).
``make asan`` runs the ``test_c_*`` tests here against an
AddressSanitizer build (the ``c_sync`` fixture).
"""

import threading

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import chains, ops
from repro.core.costmodel import DEFAULT_COSTS
from repro.core.effects import (
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
    Release,
    WaitOn,
    Wake,
)
from repro.core.errors import MPFError, RegionFormatError
from repro.core.layout import MPFConfig
from repro.core.protocol import BROADCAST, FCFS, FIRST_LNVC_LOCK
from repro.core.structs import LNVC
from repro.core.work import Work
from repro.machine import engine as engine_module
from repro.machine.balance import BALANCE_21000
from repro.machine.cpu import BalanceTiming
from repro.machine.engine import Engine
from repro.obs import Recorder
from repro.runtime import sync as sync_mod
from repro.runtime.sync import COUNTERS, STAGE_COUNTERS, ProcSync
from repro.runtime.threads import drive
from repro.testing import make_view

CFG = MPFConfig(max_lnvcs=3, max_processes=2)
N_LOCKS, N_CHAN = CFG.n_locks, CFG.n_channels
WORK = Work(instrs=7, label="w")

OPS = st.one_of(
    st.tuples(st.just("charge")),
    st.tuples(st.just("many")),
    st.tuples(st.just("acq"), st.integers(0, N_LOCKS - 1)),
    st.tuples(st.just("rel"), st.integers(0, N_LOCKS - 1)),
    st.tuples(st.just("wake"), st.integers(0, N_CHAN - 1)),
    st.tuples(st.just("waiton"), st.integers(0, N_CHAN - 1),
              st.integers(0, N_LOCKS - 1)),
    st.tuples(st.just("junk")),
    st.tuples(st.just("raise")),
)


STEPS = st.one_of(
    st.tuples(st.just("charge")),
    st.tuples(st.just("many")),
    st.tuples(st.just("acq"), st.integers(0, N_LOCKS - 1)),
    st.tuples(st.just("rel"), st.integers(0, N_LOCKS - 1)),
    st.tuples(st.just("op"), st.sampled_from([4, 6, -1, "x"])),
)

#: A section: steps, a call and the steps after it.  The call goes on
#: (``None``), jumps to a tail with a value, bails with a value or raises.
SECTIONS = st.tuples(
    st.just("section"), st.lists(STEPS, max_size=3),
    st.one_of(st.tuples(st.just("none")),
              st.tuples(st.just("jump"), st.integers(0, 9),
                        st.lists(STEPS, max_size=3)),
              st.tuples(st.just("bail"), st.integers(0, 9)),
              st.tuples(st.just("boom"))),
    st.lists(STEPS, max_size=3))


#: The section calls made, in order (``observe`` empties it).
CALLS: list = []


def step(spec, held: set) -> tuple:
    """The section step ``spec`` names, for a worker holding ``held``
    when it runs (an acquire of a held lock is a charge instead)."""
    kind = spec[0]
    if kind == "charge":
        return (S_CHARGE, WORK)
    if kind == "many":
        return (S_MANY, (WORK, WORK))
    if kind == "acq" and spec[1] not in held:
        held.add(spec[1])
        return (S_ACQ, spec[1])
    if kind == "rel":
        held.discard(spec[1])
        return (S_REL, spec[1])
    return (spec[1], None) if kind == "op" else (S_CHARGE, WORK)


def section(spec, held: set) -> FusedSection:
    """The section ``spec`` names; ``held`` follows the steps that run."""
    _, pre, call, after = spec
    steps = [step(s, held) for s in pre]
    kind = call[0]
    if kind == "jump":
        d = (D_JUMP, call[1], tuple(step(s, held) for s in call[2]))
    elif kind == "bail":
        d = (D_BAIL, call[1])
    else:
        d = None
    if kind == "boom":
        def fn():
            CALLS.append(fn)
            raise KeyError("stage")
    else:
        def fn():
            CALLS.append(fn)
            return d
    runs = held if kind == "none" else set(held)
    return FusedSection(tuple(steps) + ((S_CALL, fn),)
                        + tuple(step(s, runs) for s in after))


def program(ops):
    """The effects ``ops`` name, skipping what would block a lone worker
    for good: an ``Acquire`` of a lock it holds, a ``WaitOn`` it could
    only be woken from; returns what each section sent it."""
    held = set()
    sent = []
    for op in ops:
        kind = op[0]
        if kind == "section":
            sent.append((yield section(op, held)))
        elif kind == "charge":
            yield Charge(WORK)
        elif kind == "many":
            yield ChargeMany((WORK, WORK))
        elif kind == "acq" and op[1] not in held:
            yield Acquire(op[1])
            held.add(op[1])
        elif kind == "rel":
            yield Release(op[1])
            held.discard(op[1])
        elif kind == "wake":
            yield Wake(op[1])
        elif kind == "waiton" and not (op[2] in held
                                       and op[2] == FIRST_LNVC_LOCK + op[1]):
            yield WaitOn(op[1], op[2])
        elif kind == "junk":
            yield "junk"
        elif kind == "raise":
            raise KeyError("inner")
    return len(ops), sent


def make(c, cfg: MPFConfig = CFG) -> ProcSync:
    """A two-worker ``ProcSync`` for ``cfg`` on ``c`` (a built
    ``sync.c``), or the Python one for ``None``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sync_mod, "C_SYNC", c)
        shared = ProcSync(cfg, threading, 2)
    assert shared.impl == ("python" if c is None else "c")
    return shared


def run(c, gen, handle, rec, process):
    """``drive`` as the runtimes call it — by ``c``'s own compiled loop
    for a C handle without a recorder (``c`` may be a build other than
    the one ``threads.drive`` dispatches to)."""
    if c is not None and rec is None:
        return c.drive(gen, handle, process)
    return drive(gen, handle, recorder=rec, process=process)


def observe(c, ops, recorded: bool) -> dict:
    """What a run of ``ops`` leaves.  The stage counters are checked here
    and left out: only ``sync.c``'s drive counts the section calls, each
    of these one it hands to Python (none is a walk or a stage)."""
    shared = make(c)
    handle = shared.bind(0)
    rec = Recorder() if recorded else None
    CALLS.clear()
    try:
        out = ("return", run(c, program(ops), handle, rec, "p0"))
    except Exception as exc:  # compared by type and message
        out = (type(exc).__name__, str(exc))
    counters = handle.counters()
    bare_c = c is not None and rec is None
    assert [counters.pop(k) for k in STAGE_COUNTERS] == [
        0, len(CALLS) if bare_c else 0]
    return {
        "out": out,
        "counters": counters,
        "held": list(handle.held),
        "locked": [shared.locked(i) for i in range(N_LOCKS)],
        # wait bytes, status rows, lock words, futex words
        "mem": bytes(shared._mem),
        "summary": rec.summary() if rec else None,
    }


@settings(max_examples=150, deadline=None)
@given(ops=st.lists(OPS, max_size=24), recorded=st.booleans())
@example(ops=[("acq", 2), ("wake", 0), ("rel", 2)], recorded=False)
@example(ops=[("acq", 3), ("rel", 2)], recorded=False)
@example(ops=[("acq", 0), ("rel", 0), ("rel", 0)], recorded=True)
@example(ops=[("waiton", 0, 2)], recorded=False)
@example(ops=[("acq", 3), ("waiton", 0, 3)], recorded=False)
@example(ops=[("acq", 0), ("acq", 1), ("charge",), ("junk",)],
         recorded=False)
@example(ops=[("acq", 1), ("many",), ("raise",)], recorded=True)
def test_c_drive_matches_the_python_reference(c_sync, ops, recorded):
    assert observe(c_sync, ops, recorded) == observe(None, ops, recorded)


@settings(max_examples=150, deadline=None)
@given(ops=st.lists(st.one_of(OPS, SECTIONS), max_size=12),
       recorded=st.booleans())
# A bail ends the section with its value: read as a jump, it has no tail.
@example(ops=[("section", [("charge",)], ("bail", 7), [("many",)])],
         recorded=False)
# A bail with a lock held, which the generator releases later.
@example(ops=[("section", [("acq", 2)], ("bail", 3), [("rel", 2)]),
              ("rel", 2)], recorded=False)
# A release step, of the lock the section took.
@example(ops=[("section", [("acq", 3), ("rel", 3)], ("none",), [])],
         recorded=False)
# A jump's value is what the generator is sent; its tail runs.
@example(ops=[("section", [], ("jump", 5, [("acq", 1), ("rel", 1)]),
               [("acq", 0)])], recorded=False)
# Opcode 4 is no step: refused, whatever runs after it.
@example(ops=[("section", [("charge",), ("op", 4)], ("none",), [])],
         recorded=False)
# A call that raises: the run fails with its error, the lock still held
# (with a recorder, both sides run the Python drive).
@example(ops=[("section", [("acq", 1)], ("boom",), [("rel", 1)])],
         recorded=False)
@example(ops=[("section", [("acq", 1)], ("boom",), [("rel", 1)])],
         recorded=True)
def test_c_drive_runs_sections_as_the_python_reference(c_sync, ops,
                                                       recorded):
    assert observe(c_sync, ops, recorded) == observe(None, ops, recorded)


def test_c_ids_outside_the_tables_fail_as_the_reference_does(c_sync):
    """An ``Acquire`` past the lock table is an ``IndexError`` on both
    (the wording differs), a ``Release`` one a lock the worker does not
    own, and a ``Wake`` past the channel table an ``IndexError`` in C
    (the reference reads past its wait bytes)."""
    def outcome(c, effect):
        shared = make(c)
        try:
            run(c, (e for e in [effect]), shared.bind(0), None, "p0")
        except Exception as exc:
            return type(exc), str(exc)

    assert outcome(c_sync, Acquire(N_LOCKS))[0] is IndexError
    assert outcome(None, Acquire(N_LOCKS))[0] is IndexError
    assert (outcome(c_sync, Release(N_LOCKS))
            == outcome(None, Release(N_LOCKS))
            == (RuntimeError,
                f"process 'p0' released lock {N_LOCKS} it does not own"))
    assert outcome(c_sync, Wake(N_CHAN))[0] is IndexError


def token_pass(c, rounds: int, recorded: bool) -> list[dict]:
    """Two threads pass a token ``rounds`` times each over channel 0:
    Acquire, WaitOn until it is their turn, pass it, Release, Wake.
    Rank 1 parks on every wait it does not win at once."""
    shared = make(c)
    lock = FIRST_LNVC_LOCK
    state = {"turn": 0}

    def player(rank):
        for _ in range(rounds):
            yield Acquire(lock)
            while state["turn"] != rank:
                yield WaitOn(0, lock)
            state["turn"] = 1 - rank
            yield Release(lock)
            yield Wake(0)
        return rank

    handles = []
    for rank, spin in enumerate((sync_mod.WAIT_SPIN_NS, 0)):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sync_mod, "WAIT_SPIN_NS", spin)
            handles.append(shared.bind(rank))
    results = {}

    def body(rank):
        rec = Recorder() if recorded else None
        results[rank] = run(c, player(rank), handles[rank], rec, f"p{rank}")

    threads = [threading.Thread(target=body, args=(r,), daemon=True)
               for r in (0, 1)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(60)
    assert not any(t.is_alive() for t in threads), "a wake was lost"
    assert results == {0: 0, 1: 1}
    assert not shared.locked(lock)
    assert bytes(shared._mem[:N_CHAN * 2]) == bytes(N_CHAN * 2)
    return [h.counters() for h in handles]


@pytest.mark.parametrize("recorded", [False, True], ids=["bare", "recorded"])
def test_c_token_passing_keeps_the_counter_identities(c_sync, recorded):
    for c in (c_sync, None):
        counters = token_pass(c, 300, recorded)
        total = {k: sum(h[k] for h in counters) for k in COUNTERS}
        assert total["waits"] == total["woke_spinning"] + total["parked"], c
        assert total["parked"] == total["wakes_posted"], c
        assert total["wakes_skipped"] + total["wakes_locked"] == 600, c
        assert total["acquires"] == (
            600 + total["waits"] + total["parked"] + total["wakes_locked"]), c


# -- receive sections over a real segment: C stages against Python bodies

#: Two circuits, an FCFS one and a BROADCAST one, each with a sender
#: (pid 0) and receivers 1 and 2; a pool small enough to run dry, and
#: few message sizes, so that a receive finds its shape memoized.
RCFG = dict(max_lnvcs=4, max_processes=3, max_messages=8,
            message_pool_bytes=1 << 12)
PROTOCOLS = (FCFS, BROADCAST)

ACTIONS = st.one_of(
    st.tuples(st.just("send"), st.integers(0, 1),
              st.sampled_from((0, 1, 40, 90, 300))),
    st.tuples(st.just("recv"), st.integers(0, 1), st.integers(1, 2),
              st.one_of(st.none(), st.integers(0, 200))),
    st.tuples(st.just("recycle"), st.integers(0, 1)),
    st.tuples(st.just("corrupt"), st.integers(0, 1)),
)


def outcome(value):
    """A section's result as a comparable value: the payload, ``None``,
    or a bail's locks with its error's type and message."""
    if value.__class__ is tuple:
        locks, exc = value
        return (tuple(locks), type(exc).__name__, str(exc))
    return value


def receive(view, pid, rid, log: list, max_len=None):
    """``message_receive``'s section as it runs it (the one the view
    caches for the pid and slot), up to its first result, so that it
    never waits: the message, or ``None`` with the circuit lock held,
    or a bail with the locks to release, which are released."""
    key = (pid, view.slot_of(rid))
    sec = view._fs_recv_cache.pop(key, None)
    if sec is None or sec.lnvc_id != rid:
        sec = ops.RecvSection(view, pid, rid)
    sec.max_len = max_len
    got = yield sec.head
    view._fs_recv_cache[key] = sec
    log.append(outcome(got))
    for lock in (sec.lock,) if got is None else (
            got[0] if got.__class__ is tuple else ()):
        yield Release(lock)


def receive_program(view, actions, log: list):
    """Open both circuits, then run ``actions``: a send of a payload of
    that size (a dry pool is logged), a receive (``receive``: what is
    queued, or nothing; an overflow is a bail), a circuit deleted and
    opened again with a receive more on its old id, or a circuit's FIFO
    head pointed outside the segment and a last receive on it (the
    completion kernel refuses the record; the claim does not read it).
    An error read off a corrupt record ends the program."""
    ids = {}

    def open_circuit(c):
        ids[c, 0] = yield from ops.open_send(view, 0, f"c{c}")
        for r in (1, 2):
            ids[c, r] = yield from ops.open_receive(view, r, f"c{c}",
                                                    PROTOCOLS[c])

    for c in (0, 1):
        yield from open_circuit(c)
    for n, act in enumerate(actions):
        kind, c = act[0], act[1]
        try:
            if kind == "send":
                data = bytes((n + i) & 0xFF for i in range(act[2]))
                yield from ops.message_send(view, 0, ids[c, 0], data)
            elif kind == "recv":
                yield from receive(view, act[2], ids[c, act[2]], log, act[3])
            elif kind == "corrupt":
                r = view.region
                LNVC.set(r, view.layout.lnvc_off(view.slot_of(ids[c, 0])),
                         "fifo_head", r.size + 100)
                yield from receive(view, 1, ids[c, 1], log)
                break  # what fails now may leave its locks held
            else:
                old = ids[c, 1]
                yield from ops.close_send(view, 0, ids[c, 0])
                for r in (1, 2):
                    yield from ops.close_receive(view, r, ids[c, r])
                yield from open_circuit(c)
                yield from receive(view, 1, old, log)
        except Exception as exc:  # noqa: BLE001 - logged, then on
            log.append((kind, type(exc).__name__))
            if isinstance(exc, RegionFormatError) or not isinstance(
                    exc, MPFError):
                break  # raised off a corrupt record: locks may stay held
    return len(log)


def drive_receives(lib, actions) -> dict:
    """``actions`` on a fresh segment through ``lib``'s drive."""
    shared = make(lib, MPFConfig(**RCFG))
    handle = shared.bind(0)
    view = make_view(**RCFG)
    log: list = []
    out = lib.drive(receive_program(view, actions, log), handle, "p0")
    counters = handle.counters()
    return {"out": out, "log": log, "held": list(handle.held),
            "locked": [shared.locked(i) for i in range(shared._n_locks)],
            "segment": bytes(view.region._mv),
            "stages": [counters[k] for k in STAGE_COUNTERS]}


@settings(max_examples=60, deadline=None)
@given(actions=st.lists(ACTIONS, max_size=24))
# FCFS: a claim, a drain in C and a reap; then the drain-memo miss and
# hit of two BROADCAST receivers of one message.
@example(actions=[("send", 0, 40), ("recv", 0, 1, None), ("send", 1, 90),
                  ("recv", 1, 1, None), ("recv", 1, 2, None)])
# FCFS receives of one shape: the drain in C, into a bytes of its own;
# then three queued at once, each ending in a block of its own.
@example(actions=[("send", 0, 40), ("recv", 0, 1, None)] * 3)
@example(actions=[("send", 0, 40)] * 3 + [("recv", 0, 1, None),
                                          ("recv", 0, 2, None)] * 2)
# An overflow bails with the circuit lock; the message stays queued.
@example(actions=[("send", 0, 100), ("recv", 0, 2, 99), ("recv", 0, 2, 100)])
# A receive on a recycled circuit's old id is refused.
@example(actions=[("send", 0, 8), ("recv", 0, 1, None), ("recycle", 0),
                  ("send", 0, 8), ("recv", 0, 2, None)])
# A BROADCAST message in the header and chain of one reaped before it:
# the drain memo must not take it for the old one.
@example(actions=[("send", 1, 30), ("recv", 1, 1, None),
                  ("recv", 1, 2, None), ("send", 1, 30), ("recv", 1, 1, None),
                  ("recv", 1, 2, None)])
# A completion the kernel refuses: the reference's error.
@example(actions=[("send", 0, 30), ("recv", 0, 1, None), ("send", 0, 30),
                  ("corrupt", 0)])
def test_c_receive_stages_match_their_python_bodies(c_sync, py_stages_sync,
                                                    actions):
    """Every receive section driven by ``sync.c`` with its stages in C,
    and again with each handed to its Python body: the same values sent
    to the program, locks held and segment bytes."""
    got = drive_receives(c_sync, actions)
    ref = drive_receives(py_stages_sync, actions)
    assert ref["stages"][0] == 0
    assert sum(got["stages"]) == sum(ref["stages"])
    got.pop("stages"), ref.pop("stages")
    assert got == ref


@pytest.mark.parametrize("actions, stages", [
    # A new section's connection misses its memo; an empty claim is C's.
    ([("recv", 0, 1, None)], [1, 1]),
    # The first FCFS receive fills the connection, copy and reap memos;
    # the next two run all five stages in C.
    ([("send", 0, 40), ("recv", 0, 1, None)] * 3, [12, 3]),
    # Receiver 2 takes each BROADCAST message from the drain memo
    # receiver 1 fills, and reaps it.
    ([("send", 1, 90), ("recv", 1, 1, None), ("recv", 1, 2, None)] * 3,
     [20, 7]),
])
def test_c_receive_stages_run_in_c(c_sync, actions, stages):
    """Which stages ``sync.c``'s drive ran in C and which it handed to
    Python (``stages_c``, ``stages_py``)."""
    assert drive_receives(c_sync, actions)["stages"] == stages


# -- the free-list check's section, on both C loops ----------------------------

CHECKS = st.one_of(
    st.tuples(st.just("send"), st.integers(0, 1), st.sampled_from((0, 40))),
    st.tuples(st.just("check"), st.integers(0, 1), st.integers(1, 2),
              st.booleans()),
    st.tuples(st.just("recv"), st.integers(0, 1), st.integers(1, 2)),
    st.tuples(st.just("churn"), st.integers(0, 1)),
    st.tuples(st.just("recycle"), st.integers(0, 1)),
)
PRELUDE = Work(instrs=400, label="app-compute")


def check_program(view, actions, log: list):
    """Open both circuits, then run ``actions``: a send, a check by
    receiver 1 or 2 (its count, its fixed charge fused with ``PRELUDE``
    or not), a receive that never waits (``receive``), receiver 2's
    connection closed or opened again (the circuit's ``conn_epoch``
    moves under every check's memo, and a check of the closed connection
    bails), or the circuit deleted and opened again with a check more on
    its old id.  Every refusal is logged."""
    ids, joined = {}, {}

    def open_circuit(c):
        ids[c, 0] = yield from ops.open_send(view, 0, f"c{c}")
        for r in (1, 2):
            ids[c, r] = yield from ops.open_receive(view, r, f"c{c}",
                                                    PROTOCOLS[c])
        joined[c] = True

    for c in (0, 1):
        yield from open_circuit(c)
    for act in actions:
        kind, c = act[0], act[1]
        try:
            if kind == "send":
                yield from ops.message_send(view, 0, ids[c, 0], bytes(act[2]))
            elif kind == "check":
                log.append((yield from ops.check_receive(
                    view, act[2], ids[c, act[2]], PRELUDE if act[3] else None)))
            elif kind == "recv":
                yield from receive(view, act[2], ids[c, act[2]], log)
            elif kind == "churn" and joined[c]:
                yield from ops.close_receive(view, 2, ids[c, 2])
                joined[c] = False
            elif kind == "churn":
                ids[c, 2] = yield from ops.open_receive(view, 2, f"c{c}",
                                                        PROTOCOLS[c])
                joined[c] = True
            else:
                old = ids[c, 1]
                yield from ops.close_send(view, 0, ids[c, 0])
                for r in (1, 2) if joined[c] else (1,):
                    yield from ops.close_receive(view, r, ids[c, r])
                yield from open_circuit(c)
                log.append((yield from ops.check_receive(view, 1, old)))
        except MPFError as exc:
            log.append((kind, type(exc).__name__))
    return len(log)


def sync_checks(lib, actions) -> dict:
    """``actions`` on a fresh segment through ``lib``'s drive."""
    shared = make(lib, MPFConfig(**RCFG))
    handle = shared.bind(0)
    view = make_view(**RCFG)
    log: list = []
    out = lib.drive(check_program(view, actions, log), handle, "p0")
    counters = handle.counters()
    return {"out": out, "log": log, "held": list(handle.held),
            "locked": [shared.locked(i) for i in range(shared._n_locks)],
            "segment": bytes(view.region._mv),
            "calls": [counters[k] for k in STAGE_COUNTERS]}


def engine_checks(run, kernels, actions) -> dict:
    """``actions`` on a fresh segment as one process of ``run``, a built
    ``engine.c``'s loop, over ``kernels``; its ``calls`` are the walks'
    Python bodies."""
    view = make_view(**RCFG)
    eng = Engine(view.cfg.n_locks, view.cfg.n_channels,
                 BalanceTiming(BALANCE_21000, DEFAULT_COSTS))
    log: list = []
    eng.spawn("p0", check_program(view, actions, log))
    body, calls = ops.PollWalk.__call__, []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine_module, "C_RUN", run)
        patch.setattr(chains, "ACTIVE", kernels)
        patch.setattr(ops.PollWalk, "__call__",
                      lambda walk: calls.append(walk) or body(walk))
        eng.run()
    assert eng.loop == "c"
    return {"out": eng.results()["p0"], "log": log, "now": float.hex(eng.now),
            "held": [i for i, lock in enumerate(eng.locks) if lock.owner],
            "segment": bytes(view.region._mv), "calls": len(calls)}


@settings(max_examples=60, deadline=None)
@given(actions=st.lists(CHECKS, max_size=24))
# Counts of one and two on each protocol, the first of each memoized by
# the walk, then taken by the kernel (an FCFS queue read from its head).
@example(actions=[act for c in (0, 1) for act in (
    ("check", c, 1, False), ("send", c, 0), ("check", c, 1, False),
    ("check", c, 1, True), ("send", c, 40), ("check", c, 1, False),
    ("check", c, 1, False))])
# Receiver 2 leaves and joins again: each move of the epoch sends the
# next check of a memoized walk to its Python body, and receiver 2's
# check of its closed connection bails.
@example(actions=[act for c in (0, 1) for act in (
    ("check", c, 1, False), ("check", c, 2, False), ("check", c, 1, False),
    ("churn", c), ("check", c, 1, False), ("check", c, 1, False),
    ("check", c, 2, True), ("churn", c), ("send", c, 0),
    ("check", c, 2, False), ("check", c, 1, True), ("check", c, 2, False))])
# A recycled circuit: the old id is refused, the new one checked anew.
@example(actions=[("send", 0, 0), ("check", 0, 1, False), ("recycle", 0),
                  ("send", 0, 0), ("check", 0, 1, False), ("recv", 0, 1),
                  ("check", 0, 2, False)])
def test_c_check_walks_match_their_python_bodies(
        c_kernels, c_engine, py_stages_engine, c_sync, py_stages_sync,
        actions):
    """Every free-list check section run by ``engine.c``'s loop and by
    ``sync.c``'s drive with its walk in C, and again with each walk
    handed to its Python body: the same counts and refusals, clock,
    locks held and segment bytes."""
    got = engine_checks(c_engine, c_kernels, actions)
    ref = engine_checks(py_stages_engine, c_kernels, actions)
    assert got.pop("calls") <= ref.pop("calls")
    assert got == ref
    got = sync_checks(c_sync, actions)
    ref = sync_checks(py_stages_sync, actions)
    assert ref["calls"][0] == 0
    assert sum(got.pop("calls")) == sum(ref.pop("calls"))
    assert got == ref
