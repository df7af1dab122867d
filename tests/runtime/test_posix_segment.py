"""Tests for the named-segment POSIX runtime (unrelated processes)."""

import itertools
import subprocess
import sys
import textwrap
import uuid

import pytest

import repro.runtime.sync as sync_module
from repro.core.errors import RegionFormatError
from repro.core.layout import MPFConfig
from repro.core.protocol import FCFS
from repro.runtime.posix import PosixSegment

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
        other = PosixSegment.attach(name, MPFConfig(**CFG))
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
        # segment with flock-file locks, same semantics as in-memory.
        for i in range(8):
            mpf.message_send(cid, b"slot %d" % i)
            assert mpf.message_receive(cid) == b"slot %d" % i
        mpf.close_send(cid)
        mpf.close_receive(cid)


def test_attach_validates_config():
    name = fresh_name()
    seg = PosixSegment.create(name, MPFConfig(**CFG))
    try:
        bad = dict(CFG, max_lnvcs=16)
        with pytest.raises(RegionFormatError):
            PosixSegment.attach(name, MPFConfig(**bad))
    finally:
        seg.unlink()


def test_attach_missing_segment():
    with pytest.raises(FileNotFoundError):
        PosixSegment.attach(fresh_name(), MPFConfig(**CFG))


def test_client_pid_validation():
    with PosixSegment.create(fresh_name(), MPFConfig(**CFG)) as seg:
        with pytest.raises(ValueError):
            seg.client(99)


CHILD_SCRIPT = textwrap.dedent(
    """
    import sys
    from repro.core.layout import MPFConfig
    from repro.core.protocol import FCFS
    from repro.runtime.posix import PosixSegment

    name = sys.argv[1]
    cfg = MPFConfig(max_lnvcs=8, max_processes=4, max_messages=64,
                    message_pool_bytes=1 << 16)
    seg = PosixSegment.attach(name, cfg)
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


ECHO_SCRIPT = textwrap.dedent(
    """
    import itertools
    import sys
    import repro.runtime.sync as sync_module
    from repro.core.layout import MPFConfig
    from repro.core.protocol import FCFS
    from repro.runtime.posix import PosixSegment

    name, count = sys.argv[1], int(sys.argv[2])
    # the spin budget counts polls, as in the test that starts this
    sync_module.perf_counter_ns = itertools.count(0, 1000).__next__
    cfg = MPFConfig(max_lnvcs=8, max_processes=4, max_messages=64,
                    message_pool_bytes=1 << 16)
    seg = PosixSegment.attach(name, cfg)
    try:
        mpf = seg.client(1)
        ping = mpf.open_receive("ping", FCFS)
        pong = mpf.open_send("pong")
        for _ in range(count):
            mpf.message_send(pong, mpf.message_receive(ping))
        mpf.close_receive(ping)
        mpf.close_send(pong)
        print(mpf.sync.counters()["parked"])
    finally:
        seg.close()
    """
)


def test_ping_pong_does_not_pay_the_nap_per_hop(monkeypatch):
    """``FlockSync.wait`` yields before it naps: a peer that answers in
    microseconds is seen in microseconds.  A flat 2 ms nap per empty
    poll made 200 round trips (400 hops) cost 400 naps; the subject is
    that count (``parked``, on both sides), not the seconds it took.

    The spin budget is read off a clock that advances 1 us per reading,
    on both sides, so that it is 500 polls whatever the host's weather:
    a peer that is there answers within a few."""
    monkeypatch.setattr(sync_module, "perf_counter_ns",
                        itertools.count(0, 1000).__next__)
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
        before = mpf.sync.counters()["parked"]
        for i in range(rounds):
            mpf.message_send(ping, bytes([i]))
            assert mpf.message_receive(pong) == bytes([i])
        naps = mpf.sync.counters()["parked"] - before
        out, err = child.communicate(timeout=60)
        assert child.returncode == 0, err
        mpf.close_send(ping)
        mpf.close_receive(pong)
    # The peer's count includes its wait for the warm-up message, which
    # it may be up long before; a nap per hop would be 200 on each side.
    assert naps <= 5 and int(out) <= 5, (naps, out)
