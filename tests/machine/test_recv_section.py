"""The free-list receive as one section, against the classic generator.

On an engine-driven view ``message_receive`` over the free list is one
:class:`~repro.core.ops.RecvSection` (``ops._recv_section`` hands it
out); the ``recv_loop`` fixture takes it away, so every receive runs the
classic generator the real runtimes run.  The two must be the same run:
the clock to the last bit, every engine counter, the ``MachineReport``,
the header, a plain recorder's snapshot and every byte of the segment,
on Figure 4's and Figure 5's programs over both transports (a ring
receive is classic either way) and on a serving point.  The C loop runs
the section's stages with the kernels, the Python loop their bodies
(``tests/properties/test_engine_properties.py`` holds the two against
each other on generated programs); these run whichever loop the host
has.
"""

import contextlib
import gc
import pickle

import pytest

from repro import BROADCAST, FCFS
from repro.bench.workloads import broadcast_throughput, fcfs_throughput
from repro.core import ops
from repro.core.errors import UnknownLNVCError
from repro.core.protocol import NIL
from repro.core.structs import LNVC, MSG
from repro.machine.engine import Engine
from repro.obs import Recorder
from repro.runtime.sim import SimRuntime
from repro.serve.sweep import run_point
from repro.serve.topology import ServeShape
from repro.testing import make_view


def _observe(monkeypatch, program, loop):
    """What ``program(recorder)`` returns, and per simulated run the
    clock, the engine's counters and the segment's bytes, with every
    receive inside ``loop``; the recorder's snapshot, pickled."""
    runs = []
    real = SimRuntime.run

    def run(self, *args, **kwargs):
        try:
            return real(self, *args, **kwargs)
        finally:
            eng = self.last_engine
            runs.append((float.hex(eng.now), eng.stats.as_dict(),
                         bytes(self.last_view.region._mv)))

    rec = Recorder()
    with monkeypatch.context() as patch:
        patch.setattr(SimRuntime, "run", run)
        with loop:
            got = program(rec)
    return got, runs, pickle.dumps(rec.snapshot())


def _measured(m):
    return (float.hex(m.throughput), m.run.header, m.run.report.as_dict(),
            repr(m.run.results))


def _fig4(transport):
    return lambda rec: [_measured(fcfs_throughput(
        n, length, messages=40, recorder=rec, transport=transport))
        for n in (1, 4) for length in (16, 1024)]


def _fig5(transport):
    return lambda rec: [_measured(broadcast_throughput(
        n, length, messages=40, recorder=rec, transport=transport))
        for n in (1, 4, 16) for length in (16, 1024)]


def _serve(rec):
    point, _ = run_point(ServeShape(), 300.0, 200, seed=1987,
                         runtime="sim", recorder=rec)
    return point


@pytest.mark.parametrize("transport", ["freelist", "ring"])
@pytest.mark.parametrize("fig", ["fig4", "fig5"])
def test_a_figure_is_the_same_run_with_sections_and_classic_receives(
        monkeypatch, recv_loop, fig, transport):
    program = (_fig4 if fig == "fig4" else _fig5)(transport)
    fused = _observe(monkeypatch, program, contextlib.nullcontext())
    assert fused == _observe(monkeypatch, program, recv_loop())


def test_a_serving_point_is_the_same_run_with_sections_and_classic_receives(
        monkeypatch, recv_loop):
    fused = _observe(monkeypatch, _serve, contextlib.nullcontext())
    assert fused == _observe(monkeypatch, _serve, recv_loop())


def test_a_receive_on_a_deleted_circuits_id_is_refused(recv_loop):
    """The section's connection memo is checked against the circuit's
    generation: once the circuit is deleted and its slot reopened, the
    old id is refused with the classic receive's error, although the new
    circuit's connection epoch reads what the memo holds."""
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

    fused = SimRuntime().run([worker]).results["p0"]
    with recv_loop():
        assert SimRuntime().run([worker]).results["p0"] == fused
    assert fused.endswith("stale generation")


def _one_pid_twice():
    """Two processes receiving as pid 1 on one BROADCAST connection (so
    taking turns at its head), and a sender of two messages: what each
    got, the clock, and whether a receive section was left busy; the
    first receive's first yield, and the second's while it runs."""
    view = make_view()
    view.fuse = True
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
    yields = (next(first).__class__.__name__, next(second).__class__.__name__)
    first.close()
    second.close()
    for name, gen in (("r1", receiver()), ("r2", receiver()),
                      ("s", sender())):
        eng.spawn(name, gen)
    eng.run()
    got = (eng.results(), float.hex(eng.now),
           any(sec.busy for sec in view._fs_recv_cache.values()))
    return yields, got


def test_a_second_receive_of_one_pid_takes_the_classic_generator(recv_loop):
    """Nothing stops a program from receiving as one pid in two processes:
    the section is the first receive's until it returns, and the second
    runs the classic generator meanwhile — the same run as with classic
    receives only."""
    yields, got = _one_pid_twice()
    assert yields == ("FusedSection", "Charge")
    with recv_loop():
        assert _one_pid_twice() == (("Charge", "Charge"), got)
    results, _, busy = got
    assert (results["r1"], results["r2"], busy) == (b"a", b"b", False)


def test_a_run_leaves_no_receive_section_behind():
    """``SimRuntime.run`` unlinks its receive sections with its poll
    sections (``MPFView.forget_sections``): they are freed with the run,
    not kept, with the segment they hold, until a full collection."""
    gc.collect()
    gc.disable()
    try:
        broadcast_throughput(4, 64, messages=10)
        left = [o for o in gc.get_objects()
                if type(o) in (ops.RecvSection, ops.RecvStage)]
    finally:
        gc.enable()
    assert left == []


def _both(recv_loop, workers):
    """``workers`` run with receive sections and with classic receives:
    the results or the error, the clock, the segment; the sections' run."""
    def run():
        rt = SimRuntime()
        try:
            out = rt.run(workers).results
        except Exception as exc:  # noqa: BLE001 - compared, not handled
            out = (type(exc).__name__, str(exc))
        return (out, float.hex(rt.last_engine.now),
                bytes(rt.last_view.region._mv))

    fused = run()
    with recv_loop():
        assert run() == fused
    return fused


def test_a_record_that_reads_not_in_use_is_refused(recv_loop):
    """A circuit record whose in-use word was cleared under a receiver's
    connection memo (generation and epoch as memoized) refuses the next
    receive with the classic receive's error."""
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

    out, _, _ = _both(recv_loop, [worker])
    assert out[0] == "UnknownLNVCError" and out[1].endswith("circuit deleted")


def test_a_completion_the_kernel_refuses_is_the_references(recv_loop):
    """The FIFO head leaves the segment while a receiver copies a long
    message out: its completion kernel refuses the record, and the
    reference raises what reading it raises, as the classic receive
    does."""
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

    out, _, _ = _both(recv_loop, [receiver, sender, corrupter])
    assert out[0] == "error"
