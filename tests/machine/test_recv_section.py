"""The free-list receive: one section on every runtime.

``message_receive`` over the free list is one
:class:`~repro.core.ops.RecvSection` whatever drives it — the
simulator's two loops, the real runtimes' two drives.  Its effect
stream is pinned here as golden lists: a test-local unfolding runs the
section's steps one by one (every acquire granted) and names each step
by class and label or lock id, for an FCFS receive, a BROADCAST receive
that takes its drain from the view's memo, a reap of two messages, a
sleep and its wake, an overflow and a stale id; with a probe attached the
stream is the same, and the probe's stamps fall where the stream puts
them.  Then the edge cases on both engine loops (a deleted circuit's old
id, a record reading not in use, a completion the kernel refuses — the C
loop runs the stages with the kernels, the Python loop their bodies),
two receives as one pid, and that no section outlives a run or a closed
client.  The ring's send and receive are sections on every runtime too,
and a real pipe runs their stages in C.
``tests/properties/test_engine_properties.py`` holds the two
engine loops to each other on generated programs, and
``tests/properties/test_sync_properties.py`` the two drives (the ring's
stages on both C loops).
"""

import contextlib
import gc

import pytest

from repro import BROADCAST, FCFS, ThreadRuntime
from repro.bench.workloads import broadcast_throughput
from repro.core import chains, ops
from repro.core.effects import (
    D_JUMP,
    S_ACQ,
    S_CALL,
    S_CHARGE,
    S_REL,
    FusedSection,
)
from repro.core.errors import UnknownLNVCError
from repro.core.layout import HDR, MPFConfig
from repro.core.protocol import ALLOC_LOCK, FIRST_LNVC_LOCK, NIL
from repro.core.structs import LNVC, MSG
from repro.machine import engine
from repro.machine.engine import Engine
from repro.patterns import barrier, select_receive
from repro.runtime.blocking import MPFSystem
from repro.runtime.sim import SimRuntime
from repro.testing import DirectRunner, make_view

# -- golden effect streams ----------------------------------------------------

_STEP_NAMES = {S_CHARGE: "Charge", S_ACQ: "Acquire", S_REL: "Release"}


def _unfolded(gen):
    """``gen`` run alone, each effect and each step of a section as
    ``(class, label or lock id)``; returns ``gen``'s result."""
    value = None
    while True:
        try:
            effect = gen.send(value)
        except StopIteration as stop:
            return stop.value
        value = None
        if effect.__class__ is not FusedSection:
            kind = effect.__class__.__name__
            yield kind, (effect.work.label if kind == "Charge"
                         else effect.lock_id)
            continue
        steps, idx = effect.steps, 0
        while idx < len(steps):
            op, arg = steps[idx]
            idx += 1
            if op == S_CALL:
                d = arg()
                if d is not None:
                    value = d[1]
                    if d[0] != D_JUMP:  # a bail ends the section
                        break
                    steps, idx = d[2], 0
            else:
                yield _STEP_NAMES[op], arg.label if op == S_CHARGE else arg


class _Probe:
    """A probe whose clock reads how much of ``stream`` has run; it logs
    each call it gets as ``(name, clock, args)``."""

    def __init__(self, stream):
        self.stream, self.log = stream, []

    def now(self):
        return len(self.stream)

    def __getattr__(self, name):
        return lambda *args: self.log.append((name, len(self.stream), args))


def _stream(view, gen, probed=False, after=None):
    """What ``_unfolded(gen)`` yields, and the result or the error; with
    ``probed`` a :class:`_Probe` on the view meanwhile, and its log.
    ``after(stream)`` runs after each step, with no probe on the view."""
    stream = []
    probe = _Probe(stream) if probed else None
    view.probe = probe
    steps = _unfolded(gen)
    try:
        while True:
            stream.append(next(steps))
            if after is not None:
                view.probe = None
                after(stream)
                view.probe = probe
    except StopIteration as stop:
        out = stop.value
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        out = (type(exc).__name__, str(exc))
    view.probe = None
    return stream, out, probe and probe.log


def _circuit(*protocols, messages=()):
    """A circuit ``c`` (slot 0) that pid 0 sends on, one receiver per
    protocol (pids 1, 2, ...), ``messages`` queued; a runner for setup."""
    view = make_view()
    run = DirectRunner(view).run
    sid = run(ops.open_send(view, 0, "c"))
    for pid, proto in enumerate(protocols, 1):
        run(ops.open_receive(view, pid, "c", proto))
    for data in messages:
        run(ops.message_send(view, 0, sid, data))
    return view, run, sid


L = FIRST_LNVC_LOCK  # the circuit's lock
A = ALLOC_LOCK


def _fcfs(probed):
    view, _, sid = _circuit(FCFS, messages=[b"one"])
    return _stream(view, ops.message_receive(view, 1, sid), probed=probed)


def _broadcast_memo_hit(probed, monkeypatch):
    view, run, sid = _circuit(BROADCAST, BROADCAST, BROADCAST,
                              messages=[b"all"])
    assert run(ops.message_receive(view, 1, sid)) == b"all"
    drains = []
    real = chains.ACTIVE.drain
    monkeypatch.setattr(chains.ACTIVE, "drain",
                        lambda *args: drains.append(args) or real(*args))
    got = _stream(view, ops.message_receive(view, 2, sid), probed=probed)
    assert drains == []  # the view's drain memo named this message
    return got


def _reap(probed):
    """Two FCFS receivers: pid 1 claims and drains "a"; pid 2 takes "b"
    meanwhile and finds "a" unretired at the head, so reaps nothing;
    pid 1's completion reaps both."""
    view, _, sid = _circuit(FCFS, FCFS, messages=[b"a", b"b"])

    def fast(stream):
        if stream == [("Charge", "recv-fixed"), ("Acquire", L),
                      ("Charge", "recv-find"), ("Release", L),
                      ("Charge", "recv-copy")]:
            assert _stream(view, ops.message_receive(view, 2, sid)) == (
                [("Charge", "recv-fixed"), ("Acquire", L),
                 ("Charge", "recv-find"), ("Release", L),
                 ("Charge", "recv-copy"), ("Acquire", L),
                 ("Charge", "recv-retire"), ("Release", L)], b"b", None)

    got = _stream(view, ops.message_receive(view, 1, sid), probed, fast)
    assert HDR.get(view.region, "live_msgs") == 0
    return got


def _sleep_and_wake(probed):
    view, run, sid = _circuit(FCFS)

    def wake(stream):
        if stream[-1][0] == "WaitOn":
            run(ops.message_send(view, 0, sid, b"late"))

    return _stream(view, ops.message_receive(view, 1, sid), probed, wake)


def _overflow(probed):
    view, _, sid = _circuit(FCFS, messages=[b"x" * 100])
    return _stream(view, ops.message_receive(view, 1, sid, 10),
                   probed=probed)


def _stale_id(probed):
    view, run, old = _circuit()
    run(ops.close_send(view, 0, old))
    run(ops.open_send(view, 0, "c"))  # slot 0 again, a new generation
    return _stream(view, ops.message_receive(view, 0, old), probed=probed)


GOLDEN = {
    "fcfs": (_fcfs, [
        ("Charge", "recv-fixed"), ("Acquire", L), ("Charge", "recv-find"),
        ("Release", L), ("Charge", "recv-copy"), ("Acquire", L),
        ("Charge", "recv-retire"), ("Acquire", A), ("Release", A),
        ("Charge", "reap"), ("Release", L)], b"one"),
    "broadcast-memo-hit": (_broadcast_memo_hit, [
        ("Charge", "recv-fixed"), ("Acquire", L), ("Charge", "recv-find"),
        ("Release", L), ("Charge", "recv-copy"), ("Acquire", L),
        ("Charge", "recv-retire"), ("Release", L)], b"all"),
    "reap": (_reap, [
        ("Charge", "recv-fixed"), ("Acquire", L), ("Charge", "recv-find"),
        ("Release", L), ("Charge", "recv-copy"), ("Acquire", L),
        ("Charge", "recv-retire"), ("Acquire", A), ("Release", A),
        ("Charge", "reap"), ("Release", L)], b"a"),
    "sleep-and-wake": (_sleep_and_wake, [
        ("Charge", "recv-fixed"), ("Acquire", L), ("Charge", "recv-find"),
        ("WaitOn", L), ("Charge", "recv-wakeup"), ("Release", L),
        ("Charge", "recv-copy"), ("Acquire", L), ("Charge", "recv-retire"),
        ("Acquire", A), ("Release", A), ("Charge", "reap"),
        ("Release", L)], b"late"),
    "overflow": (_overflow, [
        ("Charge", "recv-fixed"), ("Acquire", L), ("Charge", "recv-find"),
        ("Release", L)],
        ("BufferOverflowError", "next message is 100 bytes, buffer holds 10")),
    "stale-id": (_stale_id, [
        ("Charge", "recv-fixed"), ("Acquire", L), ("Release", L)],
        ("UnknownLNVCError", "lnvc id 0: stale generation")),
}


def _case(name, probed, monkeypatch):
    make = GOLDEN[name][0]
    if make is _broadcast_memo_hit:
        return make(probed, monkeypatch)
    return make(probed)


@pytest.mark.parametrize("name", GOLDEN)
def test_a_receive_is_its_golden_effect_stream(name, monkeypatch):
    _, stream, out = GOLDEN[name]
    assert _case(name, False, monkeypatch) == (stream, out, None)


@pytest.mark.parametrize("name", GOLDEN)
def test_a_probe_stamps_the_receive_where_its_stream_puts_the_instants(
        name, monkeypatch):
    """With a probe attached the section carries the probe's stages and
    yields the same stream.  The probe's clock reads the steps run so
    far: the entry stamp is 0, the claim's falls after ``recv-find``
    (3, or 5 past a sleep), the drain's after ``recv-copy``; on a reap
    the queue depth is read after ``recv-retire`` and the freed messages
    under the allocator lock; the receive is reported after the last
    release."""
    _, stream, out = GOLDEN[name]
    got, got_out, log = _case(name, True, monkeypatch)
    assert (got, got_out) == (stream, out)
    if isinstance(out, tuple):  # an error: nothing is reported
        assert log == []
        return
    done = len(stream)
    reaped = ([("queue_depth", done - 4), ("msgs_freed", done - 3)]
              if ("Charge", "reap") in stream else [])
    assert [(call, at) for call, at, _ in log] == (
        reaped + [("msg_received", done)])
    claim = 5 if name == "sleep-and-wake" else 3  # past recv-wakeup
    assert log[-1][2][-3:] == (0, claim, claim + 2)


# -- the edge cases, on both engine loops --------------------------------------


def _loops():
    """The engine loops this host has (``tests/machine/test_one_loop.py``)."""
    if engine.C_RUN is not None and chains.C is not None:
        return ("c", "python")
    return ("python",)


@contextlib.contextmanager
def _on(loop):
    with pytest.MonkeyPatch.context() as patch:
        if loop == "c":
            patch.setattr(chains, "ACTIVE", chains.C)
        else:
            patch.setattr(engine, "C_RUN", None)
        yield


def _both(workers):
    """``workers`` on each engine loop: the results or the error, the
    clock, the segment — the same on both."""
    def run():
        rt = SimRuntime()
        try:
            out = rt.run(workers).results
        except Exception as exc:  # noqa: BLE001 - compared, not handled
            out = (type(exc).__name__, str(exc))
        return (out, float.hex(rt.last_engine.now),
                bytes(rt.last_view.region._mv))

    seen = []
    for loop in _loops():
        with _on(loop):
            seen.append(run())
    assert all(got == seen[0] for got in seen)
    return seen[0]


def test_a_receive_on_a_deleted_circuits_id_is_refused():
    """The section's connection memo is checked against the circuit's
    generation: once the circuit is deleted and its slot reopened, the
    old id is refused, although the new circuit's connection epoch reads
    what the memo holds."""
    def worker(env):
        old = yield from env.open_receive("c", FCFS)
        sid = yield from env.open_send("c")
        yield from env.message_send(sid, b"one")
        assert (yield from env.message_receive(old)) == b"one"
        yield from env.close_send(sid)
        yield from env.close_receive(old)  # the last connection: deleted
        new = yield from env.open_receive("c", BROADCAST)
        yield from env.open_send("c")  # two opens: the old epoch again
        assert ops.decode_lnvc_id(new)[0] == ops.decode_lnvc_id(old)[0]
        try:
            yield from env.message_receive(old)
        except UnknownLNVCError as exc:
            return str(exc)

    out, _, _ = _both([worker])
    assert out["p0"].endswith("stale generation")


def test_a_record_that_reads_not_in_use_is_refused():
    """A circuit record whose in-use word was cleared under a receiver's
    connection memo (generation and epoch as memoized) refuses the next
    receive."""
    def worker(env):
        rid = yield from env.open_receive("c", FCFS)
        sid = yield from env.open_send("c")
        for data in (b"one", b"two"):
            yield from env.message_send(sid, data)
        assert (yield from env.message_receive(rid)) == b"one"
        view = env.view
        base = view.layout.lnvc_off(ops.decode_lnvc_id(rid)[0])
        LNVC.set(view.region, base, "in_use", 0)
        yield from env.message_receive(rid)

    out, _, _ = _both([worker])
    assert out[0] == "UnknownLNVCError" and out[1].endswith("circuit deleted")


def test_a_completion_the_kernel_refuses_is_the_references():
    """The FIFO head leaves the segment while a receiver copies a long
    message out: its completion kernel refuses the record, and the
    reference raises what reading it raises."""
    def receiver(env):
        rid = yield from env.open_receive("c", FCFS)
        return (yield from env.message_receive(rid))

    def sender(env):
        sid = yield from env.open_send("c")
        yield from env.compute(instrs=5_000)
        yield from env.message_send(sid, bytes(2_000))

    def corrupter(env):
        view = env.view
        r = view.region
        base = view.layout.lnvc_off(0)
        while True:  # until the receiver's claim pins the message
            yield from env.compute(instrs=200)
            head = LNVC.get(r, base, "fifo_head")
            if head != NIL and MSG.get(r, head, "busy"):
                break
        LNVC.set(r, base, "fifo_head", r.size + 100)

    out, _, _ = _both([receiver, sender, corrupter])
    assert out[0] == "error"


def _one_pid_twice():
    """Two processes receiving as pid 1 on one BROADCAST connection (so
    taking turns at its head), and a sender of two messages: what each
    got, the clock and the sections cached after; the first yield of two
    receives of pid 1 started one after the other."""
    view = make_view()
    eng = Engine(view.cfg.n_locks, view.cfg.n_channels)

    def setup():
        yield from ops.open_receive(view, 1, "c", BROADCAST)
        return (yield from ops.open_send(view, 0, "c"))

    def receiver():
        return (yield from ops.message_receive(view, 1, cid))

    def sender():
        for data in (b"a", b"b"):
            yield from ops.message_send(view, 0, cid, data)

    eng.spawn("setup", setup())
    eng.run()
    cid = eng.processes[0].result
    first, second = receiver(), receiver()
    yields = (next(first), next(second))
    assert yields[0] is not yields[1]  # the second built its own section
    first.close()
    second.close()
    for name, gen in (("r1", receiver()), ("r2", receiver()),
                      ("s", sender())):
        eng.spawn(name, gen)
    eng.run()
    return ([y.__class__.__name__ for y in yields], eng.results(),
            list(view._fs_recv_cache))


def test_a_second_receive_of_one_pid_builds_its_own_section():
    """Nothing stops a program from receiving as one pid in two processes:
    the section is the first receive's until it returns, and the second
    builds one of its own meanwhile; one stays cached."""
    yields, results, cached = _one_pid_twice()
    assert yields == ["FusedSection", "FusedSection"]
    assert (results["r1"], results["r2"]) == (b"a", b"b")
    assert cached == [(1, 0)]


def _sections_left(run):
    """The receive and send sections, their stages and poll walks that
    ``run()`` left alive, with the collector off from before it."""
    kinds = (ops.RecvSection, ops.SendSection, ops.Stage, ops.PollWalk)
    gc.collect()
    gc.disable()
    try:
        before = {id(o) for o in gc.get_objects() if type(o) in kinds}
        run()
        return [o for o in gc.get_objects()
                if type(o) in kinds and id(o) not in before]
    finally:
        gc.enable()


def test_a_run_leaves_no_receive_section_behind():
    """``SimRuntime.run`` unlinks its receive sections with its poll
    sections (``MPFView.forget_sections``): they are freed with the run,
    not kept, with the segment they hold, until a full collection."""
    assert _sections_left(
        lambda: broadcast_throughput(4, 64, messages=10)) == []


def test_a_thread_run_or_a_closed_client_leaves_no_section_behind():
    """So do ``ThreadRuntime.run`` after the join and a closed
    ``BlockingMPF``: a poll wait and free-list sends and receives ran
    sections."""
    def poller(env):
        box = yield from env.open_receive("box", FCFS)
        yield from env.open_send("ack")
        got = []
        for _ in range(2):
            got.append((yield from select_receive(env, (box,)))[1])
        return got

    def sender(env):
        ack = yield from env.open_receive("ack", FCFS)
        box = yield from env.open_send("box")
        for data in (b"one", b"two"):
            yield from env.message_send(box, data)
        yield from env.close_receive(ack)

    def threads():
        rt = ThreadRuntime(join_timeout=60)
        assert rt.run([poller, sender]).results["p0"] == [b"one", b"two"]

    def client():
        system = MPFSystem(MPFConfig(max_lnvcs=4, max_processes=2))
        mpf = system.client(0)
        cid = mpf.open_send("c")
        rid = mpf.open_receive("c", FCFS)
        mpf.message_send(cid, b"x")
        assert mpf.message_receive(rid) == b"x"
        assert system.view._fs_recv_cache and system.view._fs_send_cache
        mpf.close()

    assert _sections_left(threads) == []
    assert _sections_left(client) == []


@pytest.mark.parametrize("runtime", ["sim", "threads", "procs"])
def test_the_ring_send_and_receive_are_sections_on_every_runtime(runtime):
    """A ring send and receive each leave their section in the view's
    caches, whichever runtime drives them."""
    from repro import ProcRuntime

    def worker(env):
        cid = yield from env.open_send("c")
        rid = yield from env.open_receive("c", BROADCAST)
        yield from env.message_send(cid, b"x")
        assert (yield from env.message_receive(rid)) == b"x"
        view = env.view
        return [type(s).__name__ for s in (*view._fs_send_cache.values(),
                                           *view._fs_recv_cache.values())]

    rt = {"sim": SimRuntime, "threads": ThreadRuntime,
          "procs": ProcRuntime}[runtime]()
    got = rt.run([worker], cfg=MPFConfig(max_lnvcs=4, max_processes=2,
                                         transport="ring"))
    assert got.results["p0"] == ["RingSendSection", "RingRecvSection"]


@pytest.mark.parametrize("runtime", ["threads", "procs"])
def test_a_ring_pipe_runs_its_stages_in_c(runtime):
    """Without a recorder, ``sync.c``'s drive runs nearly every stage of
    a ring pipe's sends and receives in C: only a fresh section's first
    stages, which fill its memos, are the Python bodies'.  The pipe
    sends 600 BROADCAST messages of 16, 256 and 2048 B over a ring of 8
    slots, at most 16 ahead of the receiver, who returns 8 credits per
    message on a second ring circuit: the sender finds the data ring
    full, and its FCFS receives find the credit ring empty."""
    from repro import ProcRuntime
    from repro.runtime import sync as sync_mod

    if sync_mod.C_SYNC is None or chains.ACTIVE.name != "c":
        pytest.skip("no C sync on this host")
    n, window, credit = 600, 16, 8
    sizes = [(16, 256, 2048)[i % 3] for i in range(n)]

    def sender(env):
        out = yield from env.open_send("data")
        ack = yield from env.open_receive("ack", FCFS)
        # (a BROADCAST reader joins at the tail: sent before it opened,
        # a message would wait for an FCFS reader and fill the ring)
        yield from barrier(env, "go", 2)
        credits = window
        for i, size in enumerate(sizes):
            if not credits:
                yield from env.message_receive(ack)
                credits = credit
            yield from env.message_send(out, bytes([i & 0xFF]) * size)
            credits -= 1
        yield from barrier(env, "done", 2)

    def receiver(env):
        got = yield from env.open_receive("data", BROADCAST)
        ack = yield from env.open_send("ack")
        yield from barrier(env, "go", 2)
        for i, size in enumerate(sizes):
            assert (yield from env.message_receive(got)) == (
                bytes([i & 0xFF]) * size)
            if i % credit == credit - 1:
                yield from env.message_send(ack, b"k")
        yield from barrier(env, "done", 2)
        return n

    rt = (ThreadRuntime if runtime == "threads" else ProcRuntime)(
        join_timeout=60)
    result = rt.run([sender, receiver],
                    cfg=MPFConfig(max_lnvcs=6, max_processes=2,
                                  transport="ring", ring_slots=8,
                                  ring_slot_bytes=2048))
    assert result.results["p1"] == n
    ran = [sum(c[k] for c in result.sync.values())
           for k in ("stages_c", "stages_py")]
    assert ran[1] <= 0.02 * sum(ran) and sum(ran) >= 5 * n, ran


@pytest.mark.parametrize("runtime", ["threads", "procs"])
def test_a_free_list_pipe_runs_its_receive_stages_in_c(runtime):
    """Without a recorder, ``sync.c``'s drive runs nearly every receive
    stage of a free-list pipe in C (``RunResult.sync``: ``stages_c``
    against ``stages_py``): only the first connection check and the
    first drain and reap of each message shape miss their memos.  The
    pipe sends 600 FCFS messages of 16, 256 and 2048 B, at most 32 ahead
    of the receiver's acknowledgements on a second circuit."""
    from repro import ProcRuntime
    from repro.runtime import sync as sync_mod

    if sync_mod.C_SYNC is None or chains.ACTIVE.name != "c":
        pytest.skip("no C sync on this host")
    n, window = 600, 32
    sizes = [(16, 256, 2048)[i % 3] for i in range(n)]

    def sender(env):
        out = yield from env.open_send("data")
        ack = yield from env.open_receive("ack", FCFS)
        for i, size in enumerate(sizes):
            if i >= window:
                yield from env.message_receive(ack)
            yield from env.message_send(out, bytes([i & 0xFF]) * size)
        for _ in range(min(n, window)):
            yield from env.message_receive(ack)

    def receiver(env):
        got = yield from env.open_receive("data", FCFS)
        ack = yield from env.open_send("ack")
        for i, size in enumerate(sizes):
            assert (yield from env.message_receive(got)) == (
                bytes([i & 0xFF]) * size)
            yield from env.message_send(ack, b"k")
        return n

    rt = (ThreadRuntime if runtime == "threads" else ProcRuntime)(
        join_timeout=60)
    result = rt.run([sender, receiver],
                    cfg=MPFConfig(max_lnvcs=4, max_processes=2,
                                  max_messages=2 * window + 4,
                                  message_pool_bytes=1 << 17))
    assert result.results["p1"] == n
    ran = [sum(c[k] for c in result.sync.values())
           for k in ("stages_c", "stages_py")]
    assert ran[0] >= 0.99 * sum(ran) and sum(ran) >= 5 * 2 * n, ran
