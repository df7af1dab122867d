"""The spin-then-park wake protocol (runtime/sync.py) on forked processes.

The four orderings of one wake against one waiter are forced, not
hoped for: the spin budget is stretched or zeroed (the constants are
read at call time) and the waker watches the waiter's shared byte to
know which state it has reached.  The stress at the end is the
probabilistic net under them — a lost wake-up hangs it, and
``join_timeout`` turns the hang into a failure.  The ``host`` fixture
says where the peers run: here forked processes; ``test_sync_threads``
collects the same cases again with threads of the test process.
"""

import multiprocessing as mp
import os
import struct
import sys
import threading
import time
import zlib

import pytest

from repro.core.inspect import collect_violations
from repro.core.layout import MPFConfig
from repro.core.protocol import BROADCAST, FCFS, FIRST_LNVC_LOCK
from repro.obs import Recorder
from repro.patterns import barrier
from repro.runtime import sync as sync_mod
from repro.runtime.procs import ProcRuntime
from repro.runtime.sync import COUNTERS, ProcSync
from repro.runtime.threads import ThreadRuntime

pytestmark = pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="fork + POSIX semaphores"
)

CTX = mp.get_context("fork")
CHAN = 1
LOCK = FIRST_LNVC_LOCK + CHAN
WAITER = 1  # rank of the waiter; the test itself is rank 0

#: ``ProcSync``'s ``ctx`` and what starts the peer, per host.  The flag
#: and the report pipe are the fork context's on both: shared memory and
#: an OS pipe serve threads as well.
HOSTS = {"procs": (CTX, CTX.Process), "threads": (threading, threading.Thread)}
RUNTIMES = {"procs": ProcRuntime, "threads": ThreadRuntime}


class Harness:
    """A ``ProcSync`` plus one shared predicate byte and a waiter (a
    forked process or a thread) running the canonical loop: lock; while
    not flag: wait; unlock."""

    def __init__(self, host: str) -> None:
        ctx, self.spawn = HOSTS[host]
        self.sync = ProcSync(MPFConfig(max_lnvcs=4, max_processes=2), ctx, 2)
        self.waker = self.sync.bind(0)
        self.flag = CTX.RawValue("b", 0)
        self.rx, self.tx = CTX.Pipe(duplex=False)
        self.proc = None

    def start(self, target):
        peer = self.spawn(target=target, daemon=True)
        peer.start()
        return peer

    def start_waiter(self) -> None:
        def body() -> None:
            mine = self.sync.bind(WAITER)
            mine.acquire(LOCK)
            while not self.flag.value:
                mine.wait(CHAN, LOCK)
            mine.release(LOCK)
            self.tx.send(mine.counters())

        self.proc = self.start(body)

    def waiter_byte(self) -> int:
        return self.sync._mem[CHAN * 2 + WAITER]

    def until_waiter_is(self, state: int) -> None:
        deadline = time.monotonic() + 10
        while self.waiter_byte() != state:
            assert time.monotonic() < deadline, "waiter never got there"
            time.sleep(0.001)

    def set_flag_and_wake(self) -> int:
        """What every MPF waker does: change state under the channel's
        lock, release it, then wake."""
        self.waker.acquire(LOCK)
        self.flag.value = 1
        self.waker.release(LOCK)
        return self.waker.wake(CHAN)

    def waiter_counters(self) -> dict:
        assert self.rx.poll(10), "waiter did not finish"
        got = self.rx.recv()
        self.proc.join(10)
        assert not self.proc.is_alive()
        return got

    def leftover_tokens(self) -> int:
        n = 0
        while self.sync._sems[WAITER].acquire(False):
            n += 1
        return n


@pytest.fixture
def host():
    """Where the peers run, a key of ``HOSTS`` and ``RUNTIMES``."""
    return "procs"


@pytest.fixture
def harness(host):
    h = Harness(host)
    yield h
    if h.proc is not None and h.proc.is_alive() and hasattr(h.proc, "kill"):
        h.proc.kill()
        h.proc.join()
    h.sync.close()


def test_wake_before_waiter_registers(harness):
    """The waiter's lock section follows the waker's: it must see the
    predicate and never sleep; the wake found no byte and took no lock."""
    assert harness.set_flag_and_wake() == 0
    harness.start_waiter()
    waiter = harness.waiter_counters()
    assert waiter["waits"] == 0
    waker = harness.waker.counters()
    assert waker["wakes_skipped"] == 1 and waker["wakes_locked"] == 0
    assert waker["acquires"] == 1  # only set_flag's own section


def test_wake_while_spinning(harness, monkeypatch):
    """Byte cleared under the lock, no semaphore post."""
    monkeypatch.setattr(sync_mod, "WAIT_SPIN_NS", 20 * 10**9)
    harness.start_waiter()
    harness.until_waiter_is(sync_mod._SPINNING)
    assert harness.set_flag_and_wake() == 1
    waiter = harness.waiter_counters()
    assert (waiter["waits"], waiter["woke_spinning"], waiter["parked"]) == (1, 1, 0)
    waker = harness.waker.counters()
    assert waker["wakes_locked"] == 1 and waker["wakes_posted"] == 0
    assert harness.waiter_byte() == sync_mod._IDLE
    assert harness.leftover_tokens() == 0


def test_wake_while_parked(harness, monkeypatch):
    """Exactly one post, consumed by the sleeper."""
    monkeypatch.setattr(sync_mod, "WAIT_SPIN_NS", 0)
    harness.start_waiter()
    harness.until_waiter_is(sync_mod._PARKED)
    # The status row is published after the byte, outside the lock.
    deadline = time.monotonic() + 10
    while harness.sync.status(WAITER)["blocked_on"] != ("chan", CHAN):
        assert time.monotonic() < deadline, "waiter never published"
        time.sleep(0.001)
    assert harness.set_flag_and_wake() == 1
    waiter = harness.waiter_counters()
    assert (waiter["waits"], waiter["woke_spinning"], waiter["parked"]) == (1, 0, 1)
    waker = harness.waker.counters()
    assert waker["wakes_locked"] == 1 and waker["wakes_posted"] == 1
    assert harness.waiter_byte() == sync_mod._IDLE
    assert harness.leftover_tokens() == 0


def test_wake_with_nobody_registered(harness):
    """No byte set: skipped, and the lock is not touched."""
    assert harness.waker.wake(CHAN) == 0
    got = harness.waker.counters()
    assert got["wakes_skipped"] == 1
    assert got["acquires"] == 0 and got["wakes_locked"] == 0


def _contend(harness, while_blocked) -> dict:
    """Hold LOCK, start a rank-1 acquirer, run ``while_blocked()`` once
    the peer is about to acquire, release, and return its counters."""
    holder, other = harness.sync.bind(0), harness.sync.bind(1)
    holder.acquire(LOCK)
    rx, tx = CTX.Pipe(duplex=False)

    def body() -> None:
        tx.send("ready")
        other.acquire(LOCK)
        other.release(LOCK)
        tx.send(other.counters())

    proc = harness.start(body)
    assert rx.poll(10) and rx.recv() == "ready"
    while_blocked()
    holder.release(LOCK)
    assert rx.poll(10)
    got = rx.recv()
    proc.join(10)
    assert not proc.is_alive()
    return got


def test_contended_lock_released_inside_the_budget_is_taken_by_a_spin(
        harness, monkeypatch):
    monkeypatch.setattr(sync_mod, "LOCK_SPIN_NS", 20 * 10**9)
    got = _contend(harness, lambda: time.sleep(0.05))
    assert (got["acquires"], got["acquired_by_spin"],
            got["acquired_by_block"]) == (1, 1, 0)


def test_contended_lock_past_the_budget_sleeps_and_says_so(
        harness, monkeypatch):
    monkeypatch.setattr(sync_mod, "LOCK_SPIN_NS", 0)

    def until_published() -> None:
        deadline = time.monotonic() + 10
        while harness.sync.status(1)["blocked_on"] != ("lock", LOCK):
            assert time.monotonic() < deadline
            time.sleep(0.001)

    got = _contend(harness, until_published)
    assert (got["acquires"], got["acquired_by_spin"],
            got["acquired_by_block"]) == (1, 0, 1)
    assert harness.sync.status(1)["blocked_on"] is None


# -- conservation on a real pipe ----------------------------------------------


def _pipe_workers(n: int):
    def sender(env):
        data = yield from env.open_send("data")
        back = yield from env.open_receive("back", FCFS)
        yield from barrier(env, "go", 2)
        for i in range(n):
            yield from env.message_send(data, struct.pack("<I", i))
            if i % 16 == 15:
                yield from env.message_receive(back)
        yield from barrier(env, "done", 2)
        yield from env.close_send(data)
        yield from env.close_receive(back)

    def receiver(env):
        data = yield from env.open_receive("data", BROADCAST)
        back = yield from env.open_send("back")
        yield from barrier(env, "go", 2)
        got = []
        for i in range(n):
            got.append(struct.unpack("<I", (yield from env.message_receive(data)))[0])
            if i % 16 == 15:
                yield from env.message_send(back, b"c")
        yield from barrier(env, "done", 2)
        yield from env.close_receive(data)
        yield from env.close_send(back)
        return got

    return [sender, receiver]


def test_counters_account_for_every_wake_and_every_park(host):
    """RunResult.sync explains the run, with the same counters on either
    host: each Wake effect was either skipped or took the lock, and every
    park consumed exactly the one token posted for it."""
    rec = Recorder()
    cfg = MPFConfig(max_lnvcs=8, max_processes=2, transport="ring",
                    ring_slots=16, ring_slot_bytes=64)
    result = RUNTIMES[host](join_timeout=60, recorder=rec).run(
        _pipe_workers(2000), cfg=cfg)
    assert result.results["p1"] == list(range(2000))
    assert list(result.sync) == ["p0", "p1"]
    assert all(tuple(c) == COUNTERS for c in result.sync.values())
    total = {k: sum(c[k] for c in result.sync.values()) for k in COUNTERS}
    wakes_driven = sum(kinds["Wake"] for kinds in rec.summary().values())
    assert wakes_driven > 2000
    assert total["wakes_skipped"] + total["wakes_locked"] == wakes_driven
    assert total["parked"] == total["wakes_posted"]
    assert total["waits"] == total["woke_spinning"] + total["parked"]
    assert total["wakes_skipped"] > 0


# -- lost-wakeup stress ---------------------------------------------------------

N_STRESS = 20_000
WINDOW = 64


def _stress_workers(pin_cpu: int | None):
    """1 sender -> 3 BROADCAST + 1 FCFS receivers, every message
    sequence-numbered; each receiver acknowledges every WINDOW messages
    and the sender keeps at most two windows in flight (the free-list
    transport raises, not blocks, on an empty pool)."""
    n_recv = 4

    def pin() -> None:
        if pin_cpu is not None:
            os.sched_setaffinity(0, {pin_cpu})

    def sender(env):
        pin()
        data = yield from env.open_send("data")
        acks = yield from env.open_receive("acks", FCFS)
        yield from barrier(env, "go", n_recv + 1)
        owed = 0
        for seq in range(N_STRESS):
            yield from env.message_send(data, struct.pack("<QQ", seq, ~seq & 0xFFFFFFFF))
            if seq % WINDOW == WINDOW - 1:
                owed += n_recv
                while owed > n_recv:
                    yield from env.message_receive(acks)
                    owed -= 1
        while owed:
            yield from env.message_receive(acks)
            owed -= 1
        yield from barrier(env, "done", n_recv + 1)
        yield from env.close_send(data)
        yield from env.close_receive(acks)
        return N_STRESS

    def receiver(protocol):
        def body(env):
            pin()
            data = yield from env.open_receive("data", protocol)
            acks = yield from env.open_send("acks")
            yield from barrier(env, "go", n_recv + 1)
            bad = 0
            for want in range(N_STRESS):
                msg = yield from env.message_receive(data)
                seq, chk = struct.unpack("<QQ", msg)
                bad += seq != want or chk != ~seq & 0xFFFFFFFF
                if want % WINDOW == WINDOW - 1:
                    yield from env.message_send(acks, b"a")
            yield from barrier(env, "done", n_recv + 1)
            yield from env.close_receive(data)
            yield from env.close_send(acks)
            return bad
        return body

    return [sender, receiver(BROADCAST), receiver(BROADCAST),
            receiver(BROADCAST), receiver(FCFS)]


@pytest.mark.parametrize("pinned", [False, True], ids=["spread", "one-cpu"])
@pytest.mark.parametrize("transport", ["freelist", "ring"])
def test_no_lost_wakeup_under_stress(host, transport, pinned):
    """More workers than CPUs, 100,000 blocking receives: one lost
    wake-up and a worker sleeps forever (the 30 s watchdog fires).  A
    thread pins only itself, so ``one-cpu`` confines the workers alone."""
    cpu = min(os.sched_getaffinity(0)) if pinned else None
    cfg = MPFConfig(max_lnvcs=8, max_processes=5, max_messages=512,
                    message_pool_bytes=1 << 17, transport=transport,
                    ring_slots=32, ring_slot_bytes=64)
    result = RUNTIMES[host](join_timeout=30).run(_stress_workers(cpu),
                                                 cfg=cfg)
    assert result.result_list() == [N_STRESS, 0, 0, 0, 0]
    total = {k: sum(c[k] for c in result.sync.values()) for k in COUNTERS}
    assert total["parked"] == total["wakes_posted"]
    assert total["waits"] == total["woke_spinning"] + total["parked"]
    assert result.header["live_msgs"] == 0


# -- block-chain kernels between two real processes -----------------------------


def _crc_stream_workers(n: int, window: int):
    """Sender -> one FCFS receiver, sizes cycling through one-block,
    block-by-block and bulk chains; every message carries its sequence
    number and the CRC32 of its body."""
    sizes = (16, 256, 2048, 12, 1024)

    def message(seq: int) -> bytes:
        body = bytes((seq + i) & 0xFF for i in range(sizes[seq % len(sizes)] - 8))
        return struct.pack("<II", seq, zlib.crc32(body)) + body

    def sender(env):
        data = yield from env.open_send("data")
        credit = yield from env.open_receive("credit", FCFS)
        yield from barrier(env, "go", 2)
        for seq in range(n):
            if seq >= window and seq % (window // 2) == 0:
                yield from env.message_receive(credit)
            yield from env.message_send(data, message(seq))
        yield from barrier(env, "done", 2)
        yield from env.close_send(data)
        yield from env.close_receive(credit)

    def receiver(env):
        data = yield from env.open_receive("data", FCFS)
        credit = yield from env.open_send("credit")
        yield from barrier(env, "go", 2)
        bad = 0
        for want in range(n):
            msg = yield from env.message_receive(data)
            seq, crc = struct.unpack_from("<II", msg)
            bad += (seq != want or crc != zlib.crc32(msg[8:])
                    or len(msg) != sizes[want % len(sizes)])
            if want % (window // 2) == window // 2 - 1:
                yield from env.message_send(credit, b"c")
        yield from barrier(env, "done", 2)
        yield from env.close_receive(data)
        yield from env.close_send(credit)
        return bad

    return [sender, receiver]


def test_crc_stream_over_the_free_list_stays_correct():
    """20,000 messages of mixed chain lengths through pop/fill on one
    process and drain/push on another: a wrong link, a torn payload or
    a leaked block shows as a bad CRC, a hang or a non-empty pool."""
    cfg = MPFConfig(max_lnvcs=8, max_processes=2, max_messages=256,
                    message_pool_bytes=1 << 19)
    result = ProcRuntime(join_timeout=60).run(
        _crc_stream_workers(N_STRESS, WINDOW), cfg=cfg,
        final_check=lambda view: collect_violations(view, expect_empty=True))
    assert result.results["p1"] == 0
    assert result.final == []
    assert result.header["total_sends"] > N_STRESS
