"""Tests for the named-segment POSIX runtime (unrelated processes)."""

import dataclasses
import itertools
import json
import os
import subprocess
import sys
import textwrap
import uuid

import pytest

import repro.runtime.sync as sync_module
from repro.core.errors import RegionFormatError
from repro.core.inspect import inspect_segment
from repro.core.layout import MPFConfig
from repro.core.protocol import FCFS
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
        # segment with flock-file locks, same semantics as in-memory.
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


ECHO_SCRIPT = textwrap.dedent(
    """
    import itertools
    import sys
    import repro.runtime.sync as sync_module
    from repro.core.protocol import FCFS
    from repro.runtime.posix import PosixSegment

    name, count = sys.argv[1], int(sys.argv[2])
    # the spin budget counts polls, as in the test that starts this
    sync_module.perf_counter_ns = itertools.count(0, 1000).__next__
    seg = PosixSegment.attach(name)
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
    # A nap per hop is ~200 on each side (200-230 measured).  A yield
    # can still outlast the budget when the host runs something else:
    # with one of two CPUs kept busy, 60 runs napped at most 9 (this
    # side) and 8 (the peer, whose count includes its wait for the
    # warm-up message).  40 keeps 4x that tail and 5x the gap to 200.
    assert naps <= 40 and int(out) <= 40, (naps, out)
