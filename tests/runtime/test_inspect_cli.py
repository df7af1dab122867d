"""Tests for the mpf-inspect command-line tool."""

import sys
import uuid

import pytest

from repro.core.layout import MPFConfig
from repro.core.protocol import FCFS
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
