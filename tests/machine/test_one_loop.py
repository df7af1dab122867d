"""One engine loop: pins recorded on the parent commit, and a weight pin.

Until PR 17 the engine had three interpreters (classic loop, controlled
twin, epoch batcher) and the tests compared them with each other.  There
is one loop now, so the reference is what the parent commit (ac1c7dc)
produced, recorded there and asserted here:

* a controlled seeded walk over ``fcfs-race`` makes the same decisions
  over the same candidate widths in the same number of events;
* an ``fcfs_throughput`` run reports the same clock, events and lock /
  wake counters;
* "did the loop get heavier" has a deterministic answer: the events of
  a run and how many of them crossed the event queue are one value per
  program (ROADMAP 1(b) in miniature), and so are the Python calls a
  poll-heavy run makes.

The loop runs as the C step interpreter (``engine.c``) where it was
built and as the Python reference everywhere; every pin but the call
count holds on both, and each test that pins the schedule runs on each
loop this host has (``_loops``).
"""

import contextlib
import hashlib
import sys

import pytest

from repro.apps.gauss_jordan import gauss_jordan_parallel, make_system
from repro.bench.workloads import fcfs_throughput
from repro.check.scenarios import SCENARIOS
from repro.check.scheduler import RandomPolicy, run_schedule
from repro.core import chains
from repro.machine import engine
from repro.machine.engine import set_epoch
from repro.machine.stats import MachineReport
from repro.runtime.sim import SimRuntime

def _loops() -> tuple[str, ...]:
    """The engine loops this host has: the C one wherever it and the C
    kernels were built, the Python one always."""
    if engine.C_RUN is not None and chains.C is not None:
        return ("c", "python")
    return ("python",)


def _idle():
    return
    yield


@contextlib.contextmanager
def _on(loop):
    """Engines built inside take ``loop``."""
    with pytest.MonkeyPatch.context() as patch:
        if loop == "c":
            patch.setattr(chains, "ACTIVE", chains.C)
        else:
            patch.setattr(engine, "C_RUN", None)
        probe = engine.Engine(1, 0)
        probe.spawn("p", _idle())
        probe.run()
        assert probe.loop == loop
        yield


def test_controlled_walk_pinned_against_parent():
    for loop in _loops():
        with _on(loop):
            out = run_schedule(SCENARIOS["fcfs-race"], RandomPolicy(seed=7))
        assert (out.status, len(out.decisions), out.events) == (
            "ok", 316, 462), loop
        assert (sum(out.decisions), sum(out.widths)) == (224, 785), loop
        assert hashlib.sha256(
            repr((out.decisions, out.widths)).encode()).hexdigest() == (
            "79eaf4747e22ad4bce0d7d38d73f322b51c6e6b8a12c2236c1ae804e02649671"
        ), loop


def test_fcfs_report_pinned_against_parent():
    for loop in _loops():
        with _on(loop):
            rep = fcfs_throughput(4, 64, messages=60).run.report
        assert (rep.sim_seconds, rep.events, rep.lock_acquires,
                rep.lock_contended, rep.wakes, rep.woken) == (
            0.44038499999999636, 2545, 570, 53, 76, 258), loop


@pytest.mark.parametrize("transport,events,crossings", [
    ("freelist", 12065, 4196),
    ("ring", 9634, 5001),
], ids=["freelist", "ring"])
def test_queue_crossings_pinned(transport, events, crossings):
    """``events`` is the parent's; ``heap_pops`` is this loop's weight.

    A change that parks where the loop used to continue inline (or the
    reverse) moves ``heap_pops`` and nothing else: update the pin only
    with the reason in hand.
    """
    for loop in _loops():
        with _on(loop):
            rep = fcfs_throughput(4, 64, messages=400,
                                  transport=transport).run.report
        assert rep.events == events, loop
        assert rep.heap_pops == crossings, loop
        # a finished run left nothing queued
        assert rep.heap_pushes == rep.heap_pops, loop


#: Python calls into ``repro`` code of one 32x32 Gauss-Jordan solve on
#: four workers plus the arbiter, by the kernel set in use
#: (``chains.ACTIVE.name``, which also picks the engine loop): counted at
#: 2943220 before the first edit of the commit that added this pin
#: (90,198), and again when the lock sections became kernels — 89,745 /
#: 91,235 at 5536dbc before the first edit, 89,201 / 92,739 after.  The
#: Python path pays one call per lock section for its reference
#: functions, which both kernel sets share with the tests.  The C engine
#: loop took the "c" count from 89,201 (6ec7c48, before the first edit)
#: to 64,585: ``Engine.run``'s handlers and parks are no Python frames
#: there (the count includes the one call that unlinks the run's
#: sections, now ``MPFView.forget_sections``).  The C loop's poll walk
#: kernel and its inline Balance pricing, with the C claim answering an
#: empty queue itself, took it to 48,655 (67db521: 64,585), ~1.47 per
#: event: what is left is generator resumes (worker, arbiter,
#: ``select_receive``, the send / receive / check generators) and the
#: region and layout accessors their bodies call.  The Python count fell
#: from 92,739 with the demand sources (``SegmentWord``: one call fewer
#: per sample).  Reading ``region.cbuf`` in the kernel wrappers (a call
#: of ``buf`` only on a miss) and the LNVC record's offset from the
#: view's bound ``lnvc_base`` (no ``SegmentLayout.lnvc_off`` call on the
#: message path or in the table scans) took them to 44,245 / 89,205
#: (d5caed8: 48,655 / 92,024).  The free-list receive as one section
#: (``ops.RecvSection``), whose stages the C loop runs with the kernels
#: while their memos hold, took them to 34,299 / 83,095 (006fd52:
#: 44,245 / 89,205): a receive resumes its generator once, not ~9 times,
#: and on the Python loop its stage calls cost less than the resumes.
#: The receive section on every runtime (its connection stage checks its
#: memo in Python, as the C loop's kernel does) took them to 33,908 /
#: 81,935 (1d093b6: 34,299 / 83,095).  The C loop draining an FCFS
#: message itself (the section runner's drain stage, ``core/sections.c``)
#: took the C count to 33,384 (475ceb3: 33,908).  The free-list check
#: as a one-circuit section whose walk is the poll's (``PollWalk``,
#: counted in C while its memo holds) took them to 29,088 / 78,153
#: (aada3f8: 33,384 / 81,935): a check resumes its generator once.
#: A check that reads no transport word (its ``PollWalk`` reads it once,
#: when built) took them to 28,756 / 77,821 (b22250b: 29,088 / 78,153).
#: The free-list send as one section (``ops.SendSection``: alloc, fill
#: and link stages, run by the C loop with the kernels while their memos
#: hold) took them to 24,422 / 75,107 (c462b33: 28,756 / 77,821): a send
#: resumes its generator twice, not ten times.  One section base for
#: the four message sections, whose stages are built from a list display
#: (a generator expression resumes once per stage), took them to 24,216 /
#: 74,901 (f8a2aa3: 24,422 / 75,107): fewer calls per section built.
#: Lower a pin when the engine or the poll path gets lighter; a change
#: that raises one says why.
PINNED_GJ32_CALLS = {"c": 24_216, "python": 74_901}


def gj32_calls() -> tuple[int, int]:
    """``call`` events of ``sys.setprofile`` whose frame runs ``repro``
    code, and the run's engine events: numpy's and the standard
    library's own Python frames depend on their versions, not on this
    loop."""
    a, b = make_system(32)
    rt = SimRuntime()
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_globals.get(
                "__name__", "").startswith("repro"):
            calls += 1

    sys.setprofile(profile)
    try:
        gauss_jordan_parallel(a, b, p=4, runtime=rt)
    finally:
        sys.setprofile(None)
    return calls, rt.last_engine.stats.events


def test_python_calls_of_a_poll_heavy_run_pinned():
    """The jitter-free weight of the loop: ``heap_pops`` says where it
    parks, this says what it costs the interpreter between parks (one
    ``sim_gauss64`` repetition makes ~657k calls for ~359k events)."""
    gj32_calls()  # warm the ``charge`` cache and first-use imports
    calls, _ = gj32_calls()
    assert 0 < calls <= PINNED_GJ32_CALLS[chains.ACTIVE.name]
    assert gj32_calls()[0] == calls  # it repeats


def _idle_poll(wait_instrs):
    """``repro`` Python calls and engine events of a run in which one
    process waits in ``select_receive`` over two circuits for
    ``wait_instrs`` of the other's compute."""
    from repro.core.protocol import BROADCAST, FCFS
    from repro.patterns import select_receive

    def poller(env):
        ids = [(yield from env.open_receive("news", BROADCAST)),
               (yield from env.open_receive("box", FCFS))]
        cid, payload = yield from select_receive(env, ids)
        return ids.index(cid), payload

    def sender(env):
        box = yield from env.open_send("box")
        yield from env.compute(instrs=wait_instrs)
        yield from env.message_send(box, b"late")

    rt = SimRuntime()
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_globals.get(
                "__name__", "").startswith("repro"):
            calls += 1

    sys.setprofile(profile)
    try:
        res = rt.run([poller, sender])
    finally:
        sys.setprofile(None)
    assert res.results["p0"] == (1, b"late")
    return calls, rt.last_engine.stats.events


def test_an_idle_poll_round_makes_no_python_call_on_the_c_loop():
    """Each round of a wait that finds nothing is a section's steps and
    one poll walk whose memo holds: the C loop runs the walk's kernel and
    calls no Python, so tripling the wait adds events and not one call;
    the Python loop calls the walk once per circuit per round."""
    for loop in _loops():
        with _on(loop):
            _idle_poll(1_000)  # warm the ``charge`` cache
            short, e_short = _idle_poll(100_000)
            long, e_long = _idle_poll(300_000)
        assert e_long > e_short + 500, loop
        if loop == "c":
            assert long - short == 0
        else:
            assert long - short > 0


def test_ledger_shims_survive_until_the_ledger_lets_go():
    """``benchmarks/ledger`` reads these on every rep (ROADMAP 1(a))."""
    assert set_epoch(False) is None
    fields = MachineReport.__dataclass_fields__
    assert (fields["epoch_batches"].default, fields["epoch_events"].default) == (0, 0)


def _fanout_stage_calls(messages, transport="freelist"):
    """Python calls of each section stage (``ops.Stage``: the receives'
    and the sends') in a run where four BROADCAST receivers take
    ``messages`` 64-byte messages over ``transport``, and the messages
    the run sent."""
    from repro.bench.workloads import broadcast_throughput
    from repro.core import ops

    calls = {f.__name__: 0 for f in ops._STAGES}
    real = ops.Stage.__call__

    def counted(stage):
        calls[ops._STAGES[stage.kind].__name__] += 1
        return real(stage)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ops.Stage, "__call__", counted)
        m = broadcast_throughput(4, 64, messages=messages,
                                 transport=transport)
    return calls, m.run.header["total_sends"]


@pytest.mark.skipif("c" not in _loops(), reason="no C loop on this host")
def test_a_broadcast_receive_makes_no_python_stage_call_on_the_c_loop():
    """Once a receive section's memos hold — the connection, the copy
    and reap tails of the shapes at hand — the C loop runs its
    connection, claim, completion and free stages with the kernels and
    calls no Python for them; a drain is the Python body's only when the
    view's drain memo names another message, which is once per message
    (the first receiver's drain fills the memo the other three take).
    So tripling the traffic adds exactly one stage call per added
    message, a drain, and nothing else: the sender's alloc, fill and
    link stages run in C too, once the tail of the one message shape
    and the link's connection memo hold."""
    with _on("c"):
        _fanout_stage_calls(10)  # warm the ``charge`` cache
        short, sent_short = _fanout_stage_calls(20)
        long, sent_long = _fanout_stage_calls(60)
    added = {stage: long[stage] - short[stage] for stage in long}
    assert added == {"_recv_conn": 0, "_recv_claim": 0,
                     "_recv_drain": sent_long - sent_short,
                     "_recv_complete": 0, "_recv_free": 0,
                     "_send_alloc": 0, "_send_fill": 0, "_send_link": 0,
                     # no ring circuit here
                     "_rsend_fill": 0, "_rsend_refill": 0,
                     "_rsend_commit": 0, "_rrecv_take": 0,
                     "_rrecv_claim": 0, "_rrecv_copy": 0,
                     "_rrecv_complete": 0,
                     # no probe: no probe stage in the section
                     "_recv_stamp_claim": 0, "_recv_stamp_drain": 0,
                     "_recv_depth": 0, "_recv_free_traced": 0,
                     "_send_pool": 0, "_send_stamp_alloc": 0,
                     "_send_stamp_fill": 0, "_send_sent": 0,
                     "_rsend_sent": 0}


@pytest.mark.skipif("c" not in _loops(), reason="no C loop on this host")
def test_a_ring_broadcast_makes_no_python_stage_call_on_the_c_loop():
    """The same over the ring: once a ring section's memos hold — the
    connection, the fill and copy tails of the length at hand — the C
    loop runs every stage of its sends (fill, commit) and receives
    (take, claim, copy, completion) with the kernels, an empty ring
    included.  So tripling the traffic adds no stage call at all."""
    with _on("c"):
        _fanout_stage_calls(10, "ring")  # warm the ``charge`` cache
        short, sent_short = _fanout_stage_calls(20, "ring")
        long, sent_long = _fanout_stage_calls(60, "ring")
    assert sent_long > sent_short and sum(short.values()) > 0
    assert long == short
