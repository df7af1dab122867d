"""Tests for the mpf-inspect command-line tool."""

import subprocess
import sys
import textwrap
import time
import uuid

import pytest

from repro.core.layout import MPFConfig
from repro.core.protocol import FCFS, FIRST_LNVC_LOCK
from repro.inspect_cli import main
from repro.runtime.posix import PosixSegment

pytestmark = pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="POSIX shared memory"
)

CFG = MPFConfig(max_lnvcs=8, max_processes=4, max_messages=64,
                message_pool_bytes=1 << 16)


def _unlink(seg, name):
    """Unlink, restoring the tracker entry the CLI's attach removed.

    In production the CLI runs in its own process, so its unregister
    only affects itself; in-process tests must put the entry back so the
    creator's unlink finds it.
    """
    try:
        from multiprocessing import resource_tracker

        resource_tracker.register(f"/{name}", "shared_memory")
    except Exception:
        pass
    seg.unlink()


def test_inspect_live_segment(capsys):
    name = f"mpfcli-{uuid.uuid4().hex[:10]}"
    seg = PosixSegment.create(name, CFG)
    try:
        mpf = seg.client(0)
        cid = mpf.open_send("queue")
        mpf.open_receive("queue", FCFS)
        mpf.message_send(cid, b"pending message")
        assert main([name]) == 0
        out = capsys.readouterr().out
        assert "circuit 'queue'" in out
        assert "1 queued" in out
        assert "15B" in out
    finally:
        _unlink(seg, name)


def test_inspect_missing_segment(capsys):
    assert main([f"mpfcli-{uuid.uuid4().hex[:10]}"]) == 2
    assert "no shared segment" in capsys.readouterr().err


def test_inspect_ring_segment(capsys):
    """The name alone opens a ring segment: its geometry comes from the
    creator's record, which no flag ever covered."""
    name = f"mpfcli-{uuid.uuid4().hex[:10]}"
    seg = PosixSegment.create(name, MPFConfig(
        transport="ring", ring_slots=4, ring_slot_bytes=32,
        max_lnvcs=8, max_processes=4, max_messages=64,
        message_pool_bytes=1 << 16))
    try:
        mpf = seg.client(0)
        cid = mpf.open_send("rq")
        mpf.open_receive("rq", FCFS)
        mpf.message_send(cid, b"in a slot")
        assert main([name]) == 0
        out = capsys.readouterr().out
        assert "circuit 'rq'" in out
        assert "1 queued" in out
    finally:
        _unlink(seg, name)


def test_inspect_does_not_disturb_segment(capsys):
    name = f"mpfcli-{uuid.uuid4().hex[:10]}"
    seg = PosixSegment.create(name, CFG)
    try:
        mpf = seg.client(0)
        cid = mpf.open_send("q")
        mpf.open_receive("q", FCFS)
        mpf.message_send(cid, b"still here")
        main([name])
        capsys.readouterr()
        assert mpf.message_receive(cid) == b"still here"
    finally:
        _unlink(seg, name)


PARKED_CHILD = textwrap.dedent(
    """
    import sys
    from repro.core.protocol import FCFS
    from repro.runtime.posix import PosixSegment

    seg = PosixSegment.attach(sys.argv[1])
    mpf = seg.client(1)
    rid = mpf.open_receive("empty", FCFS)
    print("open", flush=True)
    mpf.message_receive(rid)
    seg.close()
    """
)


def test_inspect_names_the_holders_and_sleepers_of_a_hang(capsys):
    """A child process parks on an empty circuit: the dump reads its
    status row from the segment's sync tail and names its rank, its pid
    and the channel it sleeps on; a lock this process holds is named by
    its word, on either sync."""
    name = f"mpfcli-{uuid.uuid4().hex[:10]}"
    seg = PosixSegment.create(name, CFG)
    child = subprocess.Popen([sys.executable, "-c", PARKED_CHILD, name],
                             stdout=subprocess.PIPE, text=True)
    try:
        mpf = seg.client(0)
        cid = mpf.open_send("empty")
        assert child.stdout.readline() == "open\n"
        sleeper = f"rank 1 (pid {child.pid}): blocked_on=('chan', {cid}) held=[]"
        deadline = time.monotonic() + 10
        while True:
            assert main([name]) == 0
            out = capsys.readouterr().out
            if sleeper in out or time.monotonic() > deadline:
                break
            time.sleep(0.01)
        assert sleeper in out
        assert f"sync ({seg.sync.impl}):" in out
        mpf.sync.acquire(FIRST_LNVC_LOCK)
        main([name])
        out = capsys.readouterr().out
        holder = f"lock {FIRST_LNVC_LOCK}: held by rank 0"
        assert holder in out
        mpf.sync.release(FIRST_LNVC_LOCK)
        mpf.message_send(cid, b"wake up")
        child.wait(30)
    finally:
        child.kill()
        _unlink(seg, name)
