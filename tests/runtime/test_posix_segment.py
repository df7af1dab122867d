"""Tests for the named-segment POSIX runtime (unrelated processes)."""

import dataclasses
import json
import os
import subprocess
import sys
import textwrap
import threading
import time
import uuid
import zlib

import pytest

import repro.runtime.sync as sync_module
from repro.core import chains
from repro.core.errors import LockOwnerDiedError, RegionFormatError
from repro.core.inspect import inspect_segment
from repro.core.layout import MPFConfig
from repro.core.protocol import FCFS, FIRST_LNVC_LOCK
from repro.runtime.posix import PosixSegment, _record

pytestmark = pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="POSIX shared memory"
)

CFG = dict(max_lnvcs=8, max_processes=4, max_messages=64,
           message_pool_bytes=1 << 16)


def fresh_name():
    return f"mpftest-{uuid.uuid4().hex[:12]}"


def test_create_use_unlink():
    with PosixSegment.create(fresh_name(), MPFConfig(**CFG)) as seg:
        mpf = seg.client(0)
        cid = mpf.open_send("loop")
        mpf.open_receive("loop", FCFS)
        mpf.message_send(cid, b"roundtrip")
        assert mpf.message_receive(cid) == b"roundtrip"
        mpf.close_send(cid)
        mpf.close_receive(cid)


def test_attach_sees_creator_state():
    name = fresh_name()
    seg = PosixSegment.create(name, MPFConfig(**CFG))
    try:
        a = seg.client(0)
        cid = a.open_send("mail")
        a.message_send(cid, b"from creator")
        other = PosixSegment.attach(name)
        try:
            b = other.client(1)
            rid = b.open_receive("mail", FCFS)
            assert rid == cid
            assert b.message_receive(rid) == b"from creator"
            b.close_receive(rid)
        finally:
            other.close()
        a.close_send(cid)
    finally:
        seg.unlink()


def test_ring_transport_over_named_segment():
    cfg = MPFConfig(transport="ring", ring_slots=4, ring_slot_bytes=32,
                    **CFG)
    with PosixSegment.create(fresh_name(), cfg) as seg:
        mpf = seg.client(0)
        cid = mpf.open_send("loop")
        mpf.open_receive("loop", FCFS)
        # 8 messages through 4 slots: the ring wraps on a real shm
        # segment with its sync in the tail, same semantics as in-memory.
        for i in range(8):
            mpf.message_send(cid, b"slot %d" % i)
            assert mpf.message_receive(cid) == b"slot %d" % i
        mpf.close_send(cid)
        mpf.close_receive(cid)


@pytest.mark.parametrize("cfg", [
    MPFConfig(send_descriptors=7, **CFG),
    MPFConfig(transport="ring", ring_slots=4, ring_slot_bytes=32,
              ext_bytes=64, transports=(("f", "freelist"),), **CFG),
], ids=["descriptors", "ring"])
def test_attach_by_name_alone(cfg):
    """The attacher sizes the segment from the creator's record: same
    config, every pool at the same offset, and traffic both ways."""
    name = fresh_name()
    with PosixSegment.create(name, cfg) as seg:
        other = PosixSegment.attach(name)
        try:
            assert other.cfg == cfg
            assert other.view.layout == seg.view.layout
            a, b = seg.client(0), other.client(1)
            for circuit in ("c", "f"):  # "f" is a free-list override
                to_b = a.open_send(circuit)
                b.open_receive(circuit, FCFS)
                to_a = b.open_send(circuit + "!")
                a.open_receive(circuit + "!", FCFS)
                a.message_send(to_b, b"ping")
                assert b.message_receive(to_b) == b"ping"
                b.message_send(to_a, b"pong")
                assert a.message_receive(to_a) == b"pong"
            transports = {c.name: c.transport
                          for c in inspect_segment(other.view).circuits}
        finally:
            other.close()
    assert transports["f"] == "freelist"
    assert transports["c"] == cfg.transport


def test_attach_validates_config():
    """A stale or edited record is refused where the header disagrees."""
    name = fresh_name()
    seg = PosixSegment.create(name, MPFConfig(**CFG))
    try:
        with open(_record(name), "w") as fh:
            json.dump(dataclasses.asdict(MPFConfig(**dict(CFG, max_lnvcs=16))), fh)
        with pytest.raises(RegionFormatError, match="max_lnvcs"):
            PosixSegment.attach(name)
    finally:
        seg.unlink()


def test_attach_without_a_record():
    name = fresh_name()
    seg = PosixSegment.create(name, MPFConfig(**CFG))
    try:
        os.unlink(_record(name))
        with pytest.raises(RegionFormatError, match="config record"):
            PosixSegment.attach(name)
    finally:
        seg.unlink()


def test_leaked_segment_keeps_its_record():
    """A create that finds the name taken leaves the first record alone."""
    name = fresh_name()
    cfg = MPFConfig(send_descriptors=7, **CFG)
    with PosixSegment.create(name, cfg):
        with pytest.raises(FileExistsError):
            PosixSegment.create(name, MPFConfig(**CFG))
        other = PosixSegment.attach(name)
        assert other.cfg == cfg
        other.close()
    assert not os.path.exists(_record(name))


def test_attach_missing_segment():
    with pytest.raises(FileNotFoundError):
        PosixSegment.attach(fresh_name())


def test_client_pid_validation():
    with PosixSegment.create(fresh_name(), MPFConfig(**CFG)) as seg:
        with pytest.raises(ValueError):
            seg.client(99)


CHILD_SCRIPT = textwrap.dedent(
    """
    import sys
    from repro.core.protocol import FCFS
    from repro.runtime.posix import PosixSegment

    name = sys.argv[1]
    seg = PosixSegment.attach(name)
    try:
        mpf = seg.client(1)
        jobs = mpf.open_receive("jobs", FCFS)
        results = mpf.open_send("results")
        while True:
            msg = mpf.message_receive(jobs)
            if msg == b"STOP":
                break
            mpf.message_send(results, msg.upper())
        mpf.close_receive(jobs)
        mpf.close_send(results)
    finally:
        seg.close()
    print("child done")
    """
)


def test_truly_independent_processes():
    """A separately launched Python interpreter attaches by name and
    exchanges messages with this process — the paper's Unix-processes
    deployment, with no fork relationship at all."""
    name = fresh_name()
    seg = PosixSegment.create(name, MPFConfig(**CFG))
    try:
        child = subprocess.Popen(
            [sys.executable, "-c", CHILD_SCRIPT, name],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        mpf = seg.client(0)
        jobs = mpf.open_send("jobs")
        results = mpf.open_receive("results", FCFS)
        for word in (b"hello", b"independent", b"process"):
            mpf.message_send(jobs, word)
        got = [mpf.message_receive(results) for _ in range(3)]
        mpf.message_send(jobs, b"STOP")
        out, err = child.communicate(timeout=60)
        assert child.returncode == 0, err
        assert "child done" in out
        assert sorted(got) == [b"HELLO", b"INDEPENDENT", b"PROCESS"]
        mpf.close_send(jobs)
        mpf.close_receive(results)
    finally:
        seg.unlink()


SAME_PROCESS_SCRIPT = textwrap.dedent(
    """
    import sys
    from repro.core.layout import MPFConfig
    from repro.runtime.posix import PosixSegment

    seg = PosixSegment.create(sys.argv[1], MPFConfig(
        max_lnvcs=8, max_processes=4, max_messages=64,
        message_pool_bytes=1 << 16))
    PosixSegment.attach(sys.argv[1]).close()
    seg.unlink()
    """
)


def test_an_attach_where_the_segment_was_created_leaves_stderr_empty():
    """Create, attach in the same process, unlink: the process's resource
    tracker holds the name once, from the create, and the unlink takes it
    out — an attach that took it out as well left the tracker printing
    ``KeyError: '/mpftest-...'`` at exit."""
    done = subprocess.run(
        [sys.executable, "-c", SAME_PROCESS_SCRIPT, fresh_name()],
        capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""


ECHO_SCRIPT = textwrap.dedent(
    """
    import sys
    from repro.core.protocol import FCFS
    from repro.runtime.posix import PosixSegment

    name, count = sys.argv[1], int(sys.argv[2])
    seg = PosixSegment.attach(name)
    try:
        mpf = seg.client(1)
        ping = mpf.open_receive("ping", FCFS)
        pong = mpf.open_send("pong")
        for _ in range(count):
            mpf.message_send(pong, mpf.message_receive(ping))
        mpf.close_receive(ping)
        mpf.close_send(pong)
    finally:
        seg.close()
    """
)


def test_ping_pong_between_unrelated_processes_keeps_message_order():
    """200 round trips with a peer that only knows the segment's name:
    every echo comes back in order.  (How many polls nap is the ladder
    test's subject below, which fakes the clock and the lock; counted
    here it depended on the host's load.)"""
    name = fresh_name()
    rounds = 200
    with PosixSegment.create(name, MPFConfig(**CFG)) as seg:
        mpf = seg.client(0)
        ping = mpf.open_send("ping")
        pong = mpf.open_receive("pong", FCFS)
        child = subprocess.Popen(
            [sys.executable, "-c", ECHO_SCRIPT, name, str(rounds + 1)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        mpf.message_send(ping, b"warm-up")  # the peer has attached and opened
        assert mpf.message_receive(pong) == b"warm-up"
        for i in range(rounds):
            mpf.message_send(ping, bytes([i]))
            assert mpf.message_receive(pong) == bytes([i])
        out, err = child.communicate(timeout=60)
        assert child.returncode == 0, err
        mpf.close_send(ping)
        mpf.close_receive(pong)


# -- one sync for every real runtime: the segment's tail ---------------------

C_SYNC_BUILT = sync_module.C_SYNC
C_BUILT = C_SYNC_BUILT is not None and chains.ACTIVE.name == "c"
needs_c = pytest.mark.skipif(not C_BUILT, reason="sync.c is not in use here")

#: Makes a child interpreter run the sync its first argument names.
CHOOSE_SYNC = textwrap.dedent(
    """
    import sys
    import repro.runtime.sync as sync_module
    if sys.argv[1] == "python":
        sync_module.C_SYNC = None
    """
)


@pytest.fixture(params=["c", "python"])
def impl(request, monkeypatch):
    """The sync every segment of the case runs (and its children)."""
    if request.param == "c" and not C_BUILT:
        pytest.skip("sync.c is not in use here")
    if request.param == "python":
        monkeypatch.setattr(sync_module, "C_SYNC", None)
    return request.param


def spawn(script, impl, *args):
    return subprocess.Popen(
        [sys.executable, "-c", CHOOSE_SYNC + script, impl, *map(str, args)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True)


def until(predicate, what, seconds=10):
    deadline = time.monotonic() + seconds
    while not predicate():
        assert time.monotonic() < deadline, what
        time.sleep(0.001)


def test_two_threads_on_one_segment_exclude_each_other(impl):
    """Clients 0 and 1 of one ``PosixSegment`` in two threads: a lock one
    handle holds is refused to the other (it sleeps on it until the
    release), and a contended stream with credits arrives in order with
    every CRC intact.  (The flock sync this replaced shared one open file
    description per lock between the handles of a process, so the second
    handle's try took a held lock.)"""
    with PosixSegment.create(fresh_name(), MPFConfig(**CFG)) as seg:
        assert seg.sync.impl == impl
        a, b = seg.client(0), seg.client(1)
        lock = FIRST_LNVC_LOCK
        assert a.sync.acquire(lock) is False
        got = []
        taker = threading.Thread(target=lambda: got.append(
            b.sync.acquire(lock)))
        taker.start()
        until(lambda: seg.sync.status(1)["blocked_on"] == ("lock", lock),
              "the second handle never slept on the held lock")
        assert got == [] and seg.sync.locked(lock)
        a.sync.release(lock)
        taker.join(10)
        assert got == [True]
        assert b.sync.counters()["acquired_by_block"] == 1
        b.sync.release(lock)

        data, credit = a.open_send("data"), b.open_send("credit")
        b.open_receive("data", FCFS)
        a.open_receive("credit", FCFS)
        n, window = 320, 16

        def send():
            for i in range(n):
                body = i.to_bytes(4, "little") + bytes(
                    (i * 7 + k) & 0xFF for k in range(i % 200))
                a.message_send(data, body + zlib.crc32(body).to_bytes(4, "little"))
                if i % window == window - 1:
                    a.message_receive(credit)

        sender = threading.Thread(target=send)
        sender.start()
        for i in range(n):
            msg = b.message_receive(data)
            body = msg[:-4]
            assert zlib.crc32(body) == int.from_bytes(msg[-4:], "little")
            assert int.from_bytes(body[:4], "little") == i
            if i % window == window - 1:
                b.message_send(credit, b"go")
        sender.join(30)
        assert not sender.is_alive()


PARK_SCRIPT = textwrap.dedent(
    """
    import json
    from repro.core.protocol import FCFS
    from repro.runtime.posix import PosixSegment

    seg = PosixSegment.attach(sys.argv[2])
    mpf = seg.client(1)
    rid = mpf.open_receive("jobs", FCFS)
    print("open", flush=True)
    msg = mpf.message_receive(rid)
    mpf.close_receive(rid)
    print(json.dumps({"msg": msg.decode(), **mpf.sync.counters()}))
    seg.close()
    """
)


def test_a_named_attach_parks_and_is_woken(impl):
    """A receiver in an unrelated process parks on an empty circuit (its
    status row says so) and the sender's ``Wake`` posts to its futex
    word: it wakes with the message, having parked, and the sender
    counts the post."""
    name = fresh_name()
    with PosixSegment.create(name, MPFConfig(**CFG)) as seg:
        mpf = seg.client(0)
        cid = mpf.open_send("jobs")
        child = spawn(PARK_SCRIPT, impl, name)
        try:
            assert child.stdout.readline() == "open\n", child.stderr.read()
            until(lambda: seg.sync.status(1)["blocked_on"] == ("chan", cid),
                  "the receiver never parked")
            mpf.message_send(cid, b"job")
            out, err = child.communicate(timeout=30)
        finally:
            child.kill()
        assert child.returncode == 0, err
        got = json.loads(out)
        assert got["msg"] == "job" and got["parked"] >= 1
        assert mpf.sync.counters()["wakes_posted"] >= 1
        mpf.close_send(cid)


DIE_HOLDING_SCRIPT = textwrap.dedent(
    """
    import os
    from repro.runtime.posix import PosixSegment

    seg = PosixSegment.attach(sys.argv[2])
    seg.client(1).sync.acquire(int(sys.argv[3]))
    os._exit(0)
    """
)


def test_a_lock_whose_owner_died_is_an_error_within_a_second(impl):
    """An unrelated process takes a lock and exits holding it, and the
    word still names it.  On the C sync the next acquirer's timed sleep
    asks after the owner's pid; on the Python sync the kernel dropped
    the dead process's flock, and the next acquirer gets the lock and
    reads the word.  Either raises, naming the lock, the rank and the
    pid, well inside a second."""
    name = fresh_name()
    lock = FIRST_LNVC_LOCK + 2
    with PosixSegment.create(name, MPFConfig(**CFG)) as seg:
        child = spawn(DIE_HOLDING_SCRIPT, impl, name, lock)
        _, err = child.communicate(timeout=30)
        assert child.returncode == 0, err  # and reaped: no zombie is alive
        handle = seg.client(0).sync
        got = []

        def take():
            try:
                got.append(handle.acquire(lock))
            except LockOwnerDiedError as exc:
                got.append(exc)

        start = time.monotonic()
        taker = threading.Thread(target=take, daemon=True)
        taker.start()
        taker.join(5)
        assert got, "the acquirer hangs on a dead owner's lock"
        assert time.monotonic() - start < 1.0
        (exc,) = got
        assert isinstance(exc, LockOwnerDiedError)
        assert str(exc) == (f"lock {lock} is held by rank 1, whose process "
                            f"{child.pid} is gone")


DROP_SCRIPT = textwrap.dedent(
    """
    from repro.runtime.posix import PosixSegment

    mpf = PosixSegment.attach(sys.argv[2]).client(1)  # the segment dropped
    mpf.close_send(mpf.open_send("drop"))
    print("done")
    """
)


def test_a_segment_dropped_without_close_leaves_stderr_empty(impl):
    """A client outlives the segment it came from: the segment's shared
    memory is finalized with the client's region, after the region let
    go of it (it used to print a ``BufferError`` from
    ``SharedMemory.__del__``)."""
    name = fresh_name()
    with PosixSegment.create(name, MPFConfig(**CFG)):
        child = spawn(DROP_SCRIPT, impl, name)
        out, err = child.communicate(timeout=30)
    assert (child.returncode, out, err) == (0, "done\n", "")


def _state(pid):
    """The state letter of process ``pid`` in ``/proc/<pid>/stat``."""
    with open(f"/proc/{pid}/stat") as stat:
        return stat.read().rpartition(")")[2].split()[0]


@needs_c
def test_a_lock_whose_owner_exited_unreaped_is_an_error_within_a_second():
    """The same dead owner, met before its parent reaps it: ``kill(pid,
    0)`` still succeeds on the zombie, so the owner check reads procfs
    too and the acquirer raises well inside a second."""
    name = fresh_name()
    lock = FIRST_LNVC_LOCK + 2
    with PosixSegment.create(name, MPFConfig(**CFG)) as seg:
        child = spawn(DIE_HOLDING_SCRIPT, "c", name, lock)
        try:
            assert child.stderr.read() == ""  # EOF: the child has exited
            until(lambda: _state(child.pid) == "Z", "the child is a zombie")
            handle = seg.client(0).sync
            got = []

            def take():
                try:
                    got.append(handle.acquire(lock))
                except LockOwnerDiedError as exc:
                    got.append(exc)

            start = time.monotonic()
            taker = threading.Thread(target=take, daemon=True)
            taker.start()
            taker.join(5)
            assert got, "the acquirer hangs on a zombie owner's lock"
            assert time.monotonic() - start < 1.0
            assert _state(child.pid) == "Z"  # still unreaped
            (exc,) = got
            assert str(exc) == (f"lock {lock} is held by rank 1, whose "
                                f"process {child.pid} is gone")
        finally:
            child.communicate(timeout=30)
        assert child.returncode == 0


@needs_c
@pytest.mark.parametrize("creator", ["c", "python"])
def test_an_attacher_running_the_other_sync_is_refused(creator, monkeypatch):
    """Mixed C and Python attachers would not exclude each other (lock
    words against lock files), so the creator records its sync and an
    attacher that would run the other is refused."""
    name = fresh_name()
    if creator == "python":
        monkeypatch.setattr(sync_module, "C_SYNC", None)
    with PosixSegment.create(name, MPFConfig(**CFG)) as seg:
        assert seg.sync.impl == creator
        monkeypatch.setattr(sync_module, "C_SYNC",
                            None if creator == "c" else C_SYNC_BUILT)
        with pytest.raises(RegionFormatError,
                           match=f"runs the {creator} sync"):
            PosixSegment.attach(name)

