"""Tests for the MPI-style communicator layer (``examples/mini_mpi.py``)."""

import struct
import sys
from pathlib import Path

import pytest

from repro.runtime.sim import SimRuntime
from repro.runtime.threads import ThreadRuntime

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "examples"))
from mini_mpi import ANY_SOURCE, ANY_TAG, Comm  # noqa: E402


def run(workers, runtime=None):
    runtime = runtime or SimRuntime()
    return runtime.run(workers)


def with_comm(body):
    """Worker wrapper: connect, barrier, run body, barrier, close."""

    def worker(env):
        comm = Comm(env)
        yield from comm.connect()
        yield from comm.barrier()
        result = yield from body(comm)
        yield from comm.barrier()
        yield from comm.close()
        return result

    return worker


def test_send_recv_roundtrip():
    def body(comm):
        if comm.rank == 0:
            yield from comm.send(b"ping", dest=1, tag=7)
            msg = yield from comm.recv(source=1, tag=8)
            return msg.data
        msg = yield from comm.recv(source=0, tag=7)
        yield from comm.send(msg.data[::-1], dest=0, tag=8)
        return msg.data

    result = run([with_comm(body)] * 2)
    assert result.results == {"p0": b"gnip", "p1": b"ping"}


def test_tag_matching_out_of_order():
    """A receive for tag 2 skips an earlier tag-1 message, which a later
    receive for tag 1 still gets — MPI matching semantics."""

    def body(comm):
        if comm.rank == 0:
            yield from comm.send(b"first, tag1", dest=1, tag=1)
            yield from comm.send(b"second, tag2", dest=1, tag=2)
            return None
        m2 = yield from comm.recv(source=0, tag=2)
        m1 = yield from comm.recv(source=0, tag=1)
        return (m2.data, m1.data)

    result = run([with_comm(body)] * 2)
    assert result.results["p1"] == (b"second, tag2", b"first, tag1")


def test_any_source_any_tag():
    def body(comm):
        if comm.rank == 0:
            got = []
            for _ in range(2):
                msg = yield from comm.recv(ANY_SOURCE, ANY_TAG)
                got.append((msg.source, msg.tag, msg.data))
            return sorted(got)
        yield from comm.send(bytes([comm.rank]), dest=0, tag=comm.rank * 10)
        return None

    result = run([with_comm(body)] * 3)
    assert result.results["p0"] == [(1, 10, bytes([1])), (2, 20, bytes([2]))]


def test_per_pair_order_preserved():
    def body(comm):
        if comm.rank == 0:
            for i in range(5):
                yield from comm.send(bytes([i]), dest=1, tag=0)
            return None
        got = []
        for _ in range(5):
            msg = yield from comm.recv(source=0, tag=0)
            got.append(msg.data)
        return got

    result = run([with_comm(body)] * 2)
    assert result.results["p1"] == [bytes([i]) for i in range(5)]


def test_iprobe():
    def body(comm):
        if comm.rank == 0:
            # Nothing waiting yet.
            empty = yield from comm.iprobe()
            yield from comm.send(b"x", dest=1, tag=3)
            return empty
        while not (yield from comm.iprobe(source=0, tag=3)):
            yield from comm.env.compute(instrs=1000)
        wrong_tag = yield from comm.iprobe(source=0, tag=9)
        msg = yield from comm.recv(source=0, tag=3)
        return (wrong_tag, msg.data)

    result = run([with_comm(body)] * 2)
    assert result.results["p0"] is False
    assert result.results["p1"] == (False, b"x")


def test_sendrecv_pairwise():
    def body(comm):
        peer = 1 - comm.rank
        data = yield from comm.sendrecv(bytes([comm.rank]), peer)
        return data

    result = run([with_comm(body)] * 2)
    assert result.results["p0"] == bytes([1])
    assert result.results["p1"] == bytes([0])


def test_collectives():
    def body(comm):
        n = comm.size
        b = yield from comm.bcast(b"root says hi" if comm.rank == 0 else None)
        g = yield from comm.gather(bytes([comm.rank]))
        s = yield from comm.scatter(
            [bytes([10 + i]) for i in range(n)] if comm.rank == 0 else None
        )
        ar = yield from comm.allreduce(
            struct.pack("<I", comm.rank),
            lambda a, c: struct.pack(
                "<I", struct.unpack("<I", a)[0] + struct.unpack("<I", c)[0]
            ),
        )
        return (b, g, s, struct.unpack("<I", ar)[0])

    result = run([with_comm(body)] * 4)
    for rank in range(4):
        b, g, s, ar = result.results[f"p{rank}"]
        assert b == b"root says hi"
        assert s == bytes([10 + rank])
        assert ar == 6
        if rank == 0:
            assert g == [bytes([i]) for i in range(4)]
        else:
            assert g is None


def test_validation_errors():
    def bad_dest(comm):
        yield from comm.send(b"x", dest=99)

    with pytest.raises(ValueError, match="dest"):
        run([with_comm(bad_dest)])

    def bad_tag(comm):
        yield from comm.send(b"x", dest=0, tag=-2)

    with pytest.raises(ValueError, match="tags"):
        run([with_comm(bad_tag)])


def test_recv_before_connect_rejected():
    def worker(env):
        comm = Comm(env)
        yield from comm.recv()

    with pytest.raises(RuntimeError, match="not connected"):
        run([worker])


def test_on_threads_runtime():
    def body(comm):
        peer = (comm.rank + 1) % comm.size
        yield from comm.send(bytes([comm.rank]), dest=peer, tag=1)
        msg = yield from comm.recv(tag=1)
        return msg.source

    result = run([with_comm(body)] * 3, runtime=ThreadRuntime(join_timeout=60))
    assert result.results["p1"] == 0  # ring: 0 -> 1


def test_no_leaks_after_close():
    def body(comm):
        yield from comm.send(b"z", dest=(comm.rank + 1) % comm.size)
        yield from comm.recv()
        return "ok"

    result = run([with_comm(body)] * 3)
    assert result.header["live_msgs"] == 0
    assert result.header["live_lnvcs"] == 0
