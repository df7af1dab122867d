"""The tutorial's runnable snippets, executed (docs/tutorial.md)."""

import struct

import pytest

from repro import BROADCAST, FCFS, Recorder, SimRuntime, ThreadRuntime
from repro.machine.engine import DeadlockError
from repro.patterns import Mailboxes


def loner(env):
    cid = yield from env.open_send("notes-to-self")
    yield from env.open_receive("notes-to-self", FCFS)
    yield from env.message_send(cid, b"remember the milk")
    note = yield from env.message_receive(cid)
    yield from env.close_send(cid)
    yield from env.close_receive(cid)
    return note


def test_section_1_loopback():
    assert SimRuntime().run([loner]).results == {"p0": b"remember the milk"}


def test_section_2_lifetime_bug_detected():
    def hasty(env):
        cid = yield from env.open_send("jobs")
        yield from env.message_send(cid, b"job 1")
        yield from env.close_send(cid)

    def worker(env):
        yield from env.compute(instrs=10_000_000)  # arrives after the close
        cid = yield from env.open_receive("jobs", FCFS)
        return (yield from env.message_receive(cid))

    with pytest.raises(DeadlockError):
        SimRuntime().run([hasty, worker])


def boss(env):
    jobs = yield from env.open_send("jobs")
    rsvp = yield from env.open_receive("rsvp", FCFS)
    for _ in range(3):
        yield from env.message_receive(rsvp)
    for i in range(6):
        yield from env.message_send(jobs, f"task {i}".encode())
    yield from env.close_send(jobs)
    yield from env.close_receive(rsvp)


def make_member(protocol, quota):
    def member(env):
        inbox = yield from env.open_receive("jobs", protocol)
        rsvp = yield from env.open_send("rsvp")
        yield from env.message_send(rsvp, b"here")
        got = []
        for _ in range(quota):
            got.append((yield from env.message_receive(inbox)))
        yield from env.close_send(rsvp)
        yield from env.close_receive(inbox)
        return got

    return member


def test_section_3_fanout():
    r = SimRuntime().run(
        [boss, make_member(FCFS, 3), make_member(FCFS, 3),
         make_member(BROADCAST, 6)]
    )
    split = sorted(r.results["p1"] + r.results["p2"])
    assert split == [f"task {i}".encode() for i in range(6)]
    assert r.results["p3"] == [f"task {i}".encode() for i in range(6)]


def relaxer(env):
    left = env.rank - 1 if env.rank > 0 else None
    right = env.rank + 1 if env.rank < env.nprocs - 1 else None
    boxes = Mailboxes(env, "halo")
    yield from boxes.connect([p for p in (left, right) if p is not None])
    value = float(env.rank)
    for _ in range(10):
        payloads = {p: struct.pack("<d", value) for p in boxes.peers}
        replies = yield from boxes.swap_all(payloads)
        neighbours = [struct.unpack("<d", v)[0] for v in replies.values()]
        value = (value + sum(neighbours)) / (1 + len(neighbours))
        yield from env.compute(flops=4)
    yield from boxes.close()
    return round(value, 3)


def test_section_5_halo_exchange():
    r = SimRuntime().run([relaxer] * 4)
    values = r.result_list()
    # The 1-D averaging flattens toward the mean of 0..3.
    assert all(0.5 < v < 2.5 for v in values)
    assert values == sorted(values)  # monotone along the line
    # Same workers, real threads.
    r2 = ThreadRuntime(join_timeout=60).run([relaxer] * 4)
    assert r2.result_list() == values


def test_section_6_measuring():
    rec = Recorder()
    result = SimRuntime(recorder=rec).run([loner])
    assert result.elapsed > 0
    assert result.report.lock_acquires > 0
    breakdown = rec.charge_breakdown()
    assert breakdown["send-copy"] > 0
