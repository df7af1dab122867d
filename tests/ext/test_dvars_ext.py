"""Tests for distributed variables over LNVCs (``examples/dvars.py``)."""

import sys
from pathlib import Path

import pytest

from repro.runtime.sim import SimRuntime
from repro.runtime.threads import ThreadRuntime

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "examples"))
from dvars import DVarClient, dvar_server  # noqa: E402


def test_read_initial_value():
    def server(env):
        return (yield from dvar_server(env, "x", initial=b"init"))

    def client(env):
        dv = DVarClient(env, "x")
        yield from dv.connect()
        version, value = yield from dv.read()
        yield from dv.stop_server()
        yield from dv.close()
        return version, value

    result = SimRuntime().run([server, client])
    assert result.results["p1"] == (0, b"init")
    assert result.results["p0"] == (b"init", 0)


def test_write_bumps_version():
    def server(env):
        return (yield from dvar_server(env, "x"))

    def client(env):
        dv = DVarClient(env, "x")
        yield from dv.connect()
        v1 = yield from dv.write(b"a")
        v2 = yield from dv.write(b"b")
        _, val = yield from dv.read()
        yield from dv.stop_server()
        yield from dv.close()
        return v1, v2, val

    result = SimRuntime().run([server, client])
    assert result.results["p1"] == (1, 2, b"b")


def test_multiple_writers_serialized():
    """'a distributed variable permits multiple readers and writers':
    every write gets a distinct version; the final value is the last
    version's write."""
    n_clients, writes_each = 3, 4

    def server(env):
        return (yield from dvar_server(env, "shared"))

    def writer(env):
        dv = DVarClient(env, "shared")
        yield from dv.connect()
        versions = []
        for i in range(writes_each):
            versions.append(
                (yield from dv.write(bytes([env.rank, i])))
            )
        yield from dv.close()
        return versions

    def closer(env):
        dv = DVarClient(env, "shared")
        yield from dv.connect()
        # Wait until all writes happened, then stop.
        while True:
            version, _ = yield from dv.read()
            if version >= n_clients * writes_each:
                break
        yield from dv.stop_server()
        yield from dv.close()

    result = SimRuntime().run([server] + [writer] * n_clients + [closer])
    versions = sorted(
        v for k in ("p1", "p2", "p3") for v in result.results[k]
    )
    assert versions == list(range(1, n_clients * writes_each + 1))


def test_fetch_add_is_atomic_counter():
    n_clients, incs = 4, 5

    def server(env):
        return (yield from dvar_server(env, "ctr", initial=(0).to_bytes(8, "little", signed=True)))

    def bumper(env):
        dv = DVarClient(env, "ctr")
        yield from dv.connect()
        olds = []
        for _ in range(incs):
            olds.append((yield from dv.fetch_add(1)))
        yield from dv.close()
        return olds

    def closer(env):
        dv = DVarClient(env, "ctr")
        yield from dv.connect()
        while True:
            version, val = yield from dv.read()
            if version >= n_clients * incs:
                break
        yield from dv.stop_server()
        yield from dv.close()
        return int.from_bytes(val, "little", signed=True)

    workers = [server] + [bumper] * n_clients + [closer]
    result = SimRuntime().run(workers)
    # Every observed "old" value is unique: read-modify-write is atomic.
    olds = sorted(
        o for k in ("p1", "p2", "p3", "p4") for o in result.results[k]
    )
    assert olds == list(range(n_clients * incs))
    assert result.results["p5"] == n_clients * incs


def test_dvars_on_threads_runtime():
    def server(env):
        return (yield from dvar_server(env, "t", initial=b"0"))

    def client(env):
        dv = DVarClient(env, "t")
        yield from dv.connect()
        yield from dv.write(b"42")
        _, val = yield from dv.read()
        yield from dv.stop_server()
        yield from dv.close()
        return val

    result = ThreadRuntime(join_timeout=30).run([server, client])
    assert result.results["p1"] == b"42"
