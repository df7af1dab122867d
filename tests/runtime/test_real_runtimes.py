"""Tests for the thread and process runtimes, and cross-runtime parity.

Real runtimes give arbitrary interleavings, so these programs use the
loss-free joining discipline of :mod:`repro.patterns` wherever a circuit
must outlive its sender.
"""

import os
import sys
import time

import pytest

from repro.core.effects import Acquire, Release, WaitOn
from repro.core.errors import DeadlockSuspectedError
from repro.core.inspect import inspect_segment
from repro.core.protocol import BROADCAST, FCFS, FIRST_LNVC_LOCK, GLOBAL_LOCK
from repro.obs import Recorder
from repro.patterns import all_to_all, barrier, broadcast, gather
from repro.runtime.procs import ProcRuntime
from repro.runtime.sim import SimRuntime
from repro.runtime.threads import ThreadRuntime

THREADS = ThreadRuntime(join_timeout=60)
pytestmark = pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="POSIX runtimes"
)


def pipeline_workers(n_items=6):
    """Producer -> two FCFS consumers, with a join handshake."""

    def producer(env):
        cid = yield from env.open_send("jobs")
        rid = yield from env.open_receive("ready", FCFS)
        for _ in range(2):
            yield from env.message_receive(rid)
        for i in range(n_items):
            yield from env.message_send(cid, bytes([i]))
        yield from env.close_send(cid)
        yield from env.close_receive(rid)
        return "sent"

    def consumer(env):
        cid = yield from env.open_receive("jobs", FCFS)
        rdy = yield from env.open_send("ready")
        yield from env.message_send(rdy, b"up")
        got = []
        for _ in range(n_items // 2):
            got.append((yield from env.message_receive(cid)))
        yield from env.close_send(rdy)
        yield from env.close_receive(cid)
        return got

    return [producer, consumer, consumer]


def check_pipeline(result):
    assert result.results["p0"] == "sent"
    items = sorted(result.results["p1"] + result.results["p2"])
    assert items == [bytes([i]) for i in range(6)]
    assert result.header["live_msgs"] == 0
    assert result.header["live_lnvcs"] == 0


def test_threads_pipeline():
    check_pipeline(THREADS.run(pipeline_workers()))


def test_procs_pipeline():
    check_pipeline(ProcRuntime(join_timeout=60).run(pipeline_workers()))


def test_threads_broadcast_pattern():
    def worker(env):
        data = yield from broadcast(
            env, "bc", 0, 4, b"from-root" if env.rank == 0 else None
        )
        return data

    result = THREADS.run([worker] * 4)
    assert set(result.results.values()) == {b"from-root"}


def test_threads_gather_pattern():
    def worker(env):
        return (yield from gather(env, "g", 0, 5, bytes([env.rank])))

    result = THREADS.run([worker] * 5)
    assert result.results["p0"] == [bytes([i]) for i in range(5)]


def test_threads_all_to_all():
    n = 4

    def worker(env):
        parts = [f"{env.rank}>{j}".encode() for j in range(n)]
        return (yield from all_to_all(env, "x", n, parts))

    result = THREADS.run([worker] * n)
    for j in range(n):
        assert result.results[f"p{j}"] == [f"{i}>{j}".encode() for i in range(n)]


def test_threads_barrier_actually_synchronizes():
    import threading

    arrived = []
    released = []
    gate = threading.Event()

    def worker(env):
        if env.rank == 3:
            gate.wait(10)  # last arrival delayed in real time
        arrived.append(env.rank)
        yield from barrier(env, "b", 4)
        released.append(env.rank)

    def late_release():
        gate.set()

    import threading as _t

    t = _t.Timer(0.2, late_release)
    t.start()
    THREADS.run([worker] * 4)
    t.join()
    assert len(released) == 4
    # Nobody is released before everyone arrived.
    assert set(arrived) == {0, 1, 2, 3}


def test_threads_worker_exception_propagates():
    def bad(env):
        yield from env.compute(instrs=1)
        raise ValueError("thread bug")

    with pytest.raises(ValueError, match="thread bug"):
        THREADS.run([bad])


def test_threads_refuse_a_negative_lock_id():
    """The sync's lock list would wrap -1 to the last lock."""

    def worker(env):
        yield Acquire(-1)
        yield Release(-1)
        return "ok"

    with pytest.raises(ValueError, match="lock id -1 is negative"):
        THREADS.run([worker])


@pytest.mark.parametrize("runtime", [ThreadRuntime, ProcRuntime],
                         ids=["threads", "procs"])
def test_releasing_a_lock_another_worker_holds_fails_the_releaser(runtime):
    """A lock with no owner in the sync (a ``multiprocessing.Lock``) used
    to be freed for its holder: the holder's own release then failed,
    "released too many times", and the offender went unnamed.  Now the
    offender fails naming itself and the lock, and the holder's release
    goes through (a failed holder would be the one reported: p0 < p1)."""

    def holder(env):
        sid = yield from env.open_send("held")
        rid = yield from env.open_receive("ready", FCFS)
        yield from env.message_receive(rid)  # p1 is connected
        yield Acquire(GLOBAL_LOCK)
        yield from env.message_send(sid, b"held")
        time.sleep(0.3)  # p1 fails meanwhile
        yield Release(GLOBAL_LOCK)
        yield from env.close_send(sid)
        yield from env.close_receive(rid)

    def offender(env):
        rid = yield from env.open_receive("held", FCFS)
        sid = yield from env.open_send("ready")
        yield from env.message_send(sid, b"up")
        yield from env.message_receive(rid)  # p0 holds the lock
        yield Release(GLOBAL_LOCK)

    with pytest.raises(RuntimeError, match=(
            f"process 'p1' released lock {GLOBAL_LOCK} it does not own")):
        runtime(join_timeout=60).run([holder, offender])


@pytest.mark.parametrize("runtime", [ThreadRuntime, ProcRuntime],
                         ids=["threads", "procs"])
def test_waiting_without_the_lock_names_the_process(runtime):
    def worker(env):
        yield WaitOn(0, FIRST_LNVC_LOCK)

    with pytest.raises(RuntimeError, match=(
            "process 'p0' waits on channel 0 without holding lock "
            f"{FIRST_LNVC_LOCK}")):
        runtime(join_timeout=60).run([worker])


def test_threads_blocked_worker_times_out():
    def stuck(env):
        rid = yield from env.open_receive("void", FCFS)
        yield from env.message_receive(rid)

    # DeadlockSuspectedError subclasses TimeoutError, so callers that
    # only know about timeouts keep working...
    with pytest.raises(TimeoutError) as excinfo:
        ThreadRuntime(join_timeout=0.5).run([stuck])
    # ...but the richer type carries a per-thread wait-state dump.
    assert isinstance(excinfo.value, DeadlockSuspectedError)
    dump = excinfo.value.threads["p0"]
    assert dump["blocked_on"] == ("chan", 0)
    assert dump["held"] == []
    assert "blocked_on=('chan', 0)" in str(excinfo.value)


@pytest.mark.parametrize("runtime", [ThreadRuntime, ProcRuntime],
                         ids=["threads", "procs"])
def test_join_timeout_keeps_the_finished_workers_recording(runtime):
    """A join timeout still merges what the finished workers recorded
    (in name order, before raising); the stuck worker's child is left
    out and its wait state is read from the sync's status row."""

    def done(env):
        cid = yield from env.open_send("out")
        yield from env.close_send(cid)

    def stuck(env):
        rid = yield from env.open_receive("void", FCFS)
        yield from env.message_receive(rid)

    rec = Recorder()
    with pytest.raises(DeadlockSuspectedError) as excinfo:
        runtime(join_timeout=0.5, recorder=rec).run([done, stuck])
    dump = excinfo.value.threads
    assert list(dump) == ["p1"]
    assert dump["p1"]["blocked_on"][0] == "chan" and dump["p1"]["held"] == []
    kinds = rec.summary()
    assert list(kinds) == ["p0"]
    assert kinds["p0"]["Acquire"] == kinds["p0"]["Release"] > 0
    assert rec.lock_profile()


def test_threads_post_mortem_view_is_the_failed_runs():
    """``last_view`` is set before the threads start: after a timeout or
    a worker exception it is that run's segment, not the previous one's."""

    def stuck(env):
        rid = yield from env.open_receive("void", FCFS)
        yield from env.message_receive(rid)

    def bad(env):
        yield from env.open_send("half-open")
        raise ValueError("thread bug")

    for worker, error in ((stuck, TimeoutError), (bad, ValueError)):
        rt = ThreadRuntime(join_timeout=0.5)
        rt.run(pipeline_workers())
        clean_view = rt.last_view
        with pytest.raises(error):
            rt.run([worker])
        assert rt.last_view is not clean_view
        names = {c.name for c in inspect_segment(rt.last_view).circuits}
        assert names == ({"void"} if worker is stuck else {"half-open"})


def test_procs_worker_failure_reported():
    def bad(env):
        yield from env.compute(instrs=1)
        raise ValueError("proc bug")

    with pytest.raises(RuntimeError, match="proc bug"):
        ProcRuntime(join_timeout=30).run([bad])


def test_procs_join_timeout_fires_when_a_peer_blocks_forever():
    """One worker raises, its peer waits for it in ``message_receive``:
    ``run`` must come back at ``join_timeout`` (it used to sit in the
    result queue forever), name the blocked worker's wait state and the
    dead worker's error, and leave no segment behind."""

    def bad(env):
        yield from env.open_send("data")
        yield from barrier(env, "go", 2)
        raise ValueError("sender bug")

    def waits_forever(env):
        data = yield from env.open_receive("data", FCFS)
        yield from barrier(env, "go", 2)
        yield from env.message_receive(data)

    shm_before = set(os.listdir("/dev/shm"))
    with pytest.raises(DeadlockSuspectedError) as excinfo:
        ProcRuntime(join_timeout=1.5).run([bad, waits_forever])
    assert "within 1.5s" in str(excinfo.value)  # the join timeout fired
    dump = excinfo.value.threads
    assert list(dump) == ["p1"]
    assert dump["p1"]["blocked_on"][0] == "chan" and dump["p1"]["held"] == []
    assert "sender bug" in str(excinfo.value)
    assert set(os.listdir("/dev/shm")) <= shm_before


def test_procs_worker_killed_without_reporting_is_an_error_not_a_hang():
    def dies(env):
        yield from env.compute(instrs=1)
        os._exit(7)

    # Noticed as a death, not waited out: the 30 s join timeout would
    # raise ``DeadlockSuspectedError`` ("did not finish within") instead.
    with pytest.raises(RuntimeError, match="exited with code 7"):
        ProcRuntime(join_timeout=30).run([dies])


def test_cross_runtime_parity():
    """The same program yields the same logical results on all three
    runtimes — the paper's portability claim, demonstrated."""
    workers = pipeline_workers()
    sim = SimRuntime().run(workers)
    thr = THREADS.run(workers)
    prc = ProcRuntime(join_timeout=60).run(workers)
    for res in (sim, thr, prc):
        check_pipeline(res)
    # Identical aggregate traffic in every world.
    for field in ("total_sends", "total_receives", "total_bytes_sent"):
        assert sim.header[field] == thr.header[field] == prc.header[field]


def test_threads_stress_many_small_messages():
    """Hammer one circuit from several threads to shake out races."""
    n_senders, per = 4, 40

    def sender(env):
        cid = yield from env.open_send("storm")
        rid = yield from env.open_receive("storm.done", BROADCAST)
        for i in range(per):
            yield from env.message_send(cid, bytes([env.rank, i]))
        yield from env.message_receive(rid)
        yield from env.close_send(cid)
        yield from env.close_receive(rid)

    def collector(env):
        cid = yield from env.open_receive("storm", FCFS)
        got = []
        for _ in range(n_senders * per):
            got.append((yield from env.message_receive(cid)))
        did = yield from env.open_send("storm.done")
        yield from env.message_send(did, b"ok")
        yield from env.close_send(did)
        yield from env.close_receive(cid)
        return got

    result = THREADS.run([collector] + [sender] * n_senders)
    got = result.results["p0"]
    assert len(got) == n_senders * per
    # Per-sender order preserved (virtual-circuit time ordering).
    for rank in range(1, n_senders + 1):
        seq = [m[1] for m in got if m[0] == rank]
        assert seq == sorted(seq)
    assert result.header["live_msgs"] == 0
