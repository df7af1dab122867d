"""Tests for the select_receive polling multiplexer."""

import contextlib
import enum

import numpy as np
import pytest

from repro.core import ops
from repro.core.errors import NotConnectedError, UnknownLNVCError
from repro.core.layout import MPFConfig
from repro.core.protocol import BROADCAST, FCFS
from repro.core.work import Work
from repro.obs import Recorder
from repro.patterns import barrier, select_receive
from repro.runtime.procs import ProcRuntime
from repro.runtime.sim import SimRuntime
from repro.runtime.threads import ThreadRuntime


def test_returns_first_circuit_with_traffic():
    def chooser(env):
        a = yield from env.open_receive("a", FCFS)
        b = yield from env.open_receive("b", FCFS)
        rdy = yield from env.open_send("rdy")
        yield from env.message_send(rdy, b"up")
        which, payload = yield from select_receive(env, (a, b))
        return ("b" if which == b else "a", payload)

    def speaker(env):
        rdy = yield from env.open_receive("rdy", FCFS)
        yield from env.message_receive(rdy)
        cid = yield from env.open_send("b")
        yield from env.message_send(cid, b"on b")

    result = SimRuntime().run([chooser, speaker])
    assert result.results["p0"] == ("b", b"on b")


def test_waits_until_any_traffic():
    def chooser(env):
        a = yield from env.open_receive("a", FCFS)
        b = yield from env.open_receive("b", BROADCAST)
        t0 = env.now()
        which, payload = yield from select_receive(env, (a, b))
        return env.now() - t0, payload

    def slow_speaker(env):
        yield from env.compute(instrs=1_000_000)  # 1 simulated second
        cid = yield from env.open_send("a")
        yield from env.message_send(cid, b"finally")

    result = SimRuntime().run([chooser, slow_speaker])
    waited, payload = result.results["p0"]
    assert waited >= 1.0
    assert payload == b"finally"


def test_polling_priority_is_list_order():
    def chooser(env):
        a = yield from env.open_receive("a", FCFS)
        b = yield from env.open_receive("b", FCFS)
        rdy = yield from env.open_send("rdy")
        yield from env.message_send(rdy, b"up")
        # Wait until both circuits are non-empty, then select: the
        # first-listed circuit must win the tie.
        while not ((yield from env.check_receive(a))
                   and (yield from env.check_receive(b))):
            yield from env.compute(instrs=200)
        got = []
        for _ in range(2):
            which, payload = yield from select_receive(env, (a, b))
            got.append(payload)
        return got

    def speaker(env):
        rdy = yield from env.open_receive("rdy", FCFS)
        yield from env.message_receive(rdy)
        ca = yield from env.open_send("a")
        cb = yield from env.open_send("b")
        yield from env.message_send(cb, b"second")
        yield from env.message_send(ca, b"first")

    result = SimRuntime().run([chooser, speaker])
    assert result.results["p0"] == [b"first", b"second"]


def test_empty_circuit_list_rejected():
    def chooser(env):
        yield from select_receive(env, ())

    with pytest.raises(ValueError):
        SimRuntime().run([chooser])


def test_on_threads_runtime():
    def chooser(env):
        a = yield from env.open_receive("a", FCFS)
        b = yield from env.open_receive("b", FCFS)
        rdy = yield from env.open_send("rdy")
        yield from env.message_send(rdy, b"up")
        which, payload = yield from select_receive(env, (a, b))
        yield from env.close_send(rdy)
        return payload

    def speaker(env):
        rdy = yield from env.open_receive("rdy", FCFS)
        yield from env.message_receive(rdy)
        cid = yield from env.open_send("a")
        yield from env.message_send(cid, b"hello threads")

    result = ThreadRuntime(join_timeout=30).run([chooser, speaker])
    assert result.results["p0"] == b"hello threads"


# -- the engine-resident poll (ops.poll_receive): edges and errors -----------
#
# Each program runs through the per-check loop and with the section; the
# section idles inside one engine-resident loop, and must fail, re-price
# and fall back exactly where the per-check loop does.


def _both(poll_loop, workers, cfg=None, trace=False):
    """Run through the per-check loop, then with the section; assert one
    schedule; return the section's run."""
    runs = []
    for loop in (poll_loop(), contextlib.nullcontext()):
        rec = Recorder() if trace else None
        rt = SimRuntime(recorder=rec)
        with loop:
            result = rt.run(workers, cfg=cfg)
        assert all(lock.owner is None for lock in rt.last_engine.locks)
        runs.append((result.results, result.elapsed, result.report.events,
                     rec and list(rec.spans)))
    assert runs[0] == runs[1]
    return rt.last_view, runs[1]


def _closing_pollers_connection(keep_circuit, error):
    """p1 closes p0's receive connection while p0 polls the circuit."""

    def poller(env):
        box = yield from env.open_receive("box", FCFS)
        try:
            yield from select_receive(env, (box,))
        except error as exc:
            # The circuit lock must be free again: reopening takes it.
            again = yield from env.open_receive("box", FCFS)
            yield from env.close_receive(again)
            return type(exc).__name__, env.now()

    def saboteur(env):
        box = yield from env.open_send("box")
        yield from env.compute(instrs=20_000)  # p0 is idle-polling by now
        if not keep_circuit:
            yield from env.close_send(box)
        yield from ops.close_receive(env.view, 0, box)
        if keep_circuit:
            yield from env.close_send(box)

    return [poller, saboteur]


def test_circuit_deleted_mid_poll(poll_loop):
    _, (results, *_) = _both(
        poll_loop, _closing_pollers_connection(False, UnknownLNVCError))
    assert results["p0"][0] == "UnknownLNVCError"


def test_connection_closed_mid_poll(poll_loop):
    _, (results, *_) = _both(
        poll_loop, _closing_pollers_connection(True, NotConnectedError))
    assert results["p0"][0] == "NotConnectedError"


def _walk_instrs(trace, process="p0"):
    """The distinct instruction budgets of ``process``'s walk charges."""
    return {span.value for span in trace
            if span.process == process and span.name == "check-walk"}


def test_connection_churn_reprices_the_walk(poll_loop):
    """A conn_epoch bump drops the probe's memo: the walk length follows."""

    def poller(env):
        news = yield from env.open_receive("news", BROADCAST)
        which, payload = yield from select_receive(env, (news,))
        return payload

    def joiner(env):
        yield from env.compute(instrs=10_000)
        news = yield from env.open_receive("news", BROADCAST)  # p0 sinks
        yield from env.compute(instrs=10_000)
        yield from env.close_receive(news)  # ...and surfaces again
        yield from env.compute(instrs=10_000)
        out = yield from env.open_send("news")
        yield from env.message_send(out, b"late")

    _, (results, _, _, trace) = _both(
        poll_loop, [poller, joiner], trace=True)
    assert results["p0"] == b"late"
    assert len(_walk_instrs(trace)) == 2  # one descriptor deep, then two


def test_more_descriptors_than_memoized_walk_charges(poll_loop):
    """Eight receivers ahead of the poller: an un-memoized check-walk."""
    others = 8

    def poller(env):
        news = yield from env.open_receive("news", BROADCAST)
        which, payload = yield from select_receive(env, (news,))
        return payload

    def listener(env):
        yield from env.compute(instrs=2_000 * env.rank)
        news = yield from env.open_receive("news", BROADCAST)
        return (yield from env.message_receive(news))

    def speaker(env):
        yield from env.compute(instrs=40_000)
        out = yield from env.open_send("news")
        yield from env.message_send(out, b"all")

    view, (results, _, _, trace) = _both(
        poll_loop, [poller] + [listener] * others + [speaker], trace=True)
    assert set(results.values()) == {b"all", None}
    step = view.costs.list_step
    assert (others + 1) * step in _walk_instrs(trace)


def test_ring_circuit_in_the_set_takes_the_classic_loop(poll_loop):
    cfg = MPFConfig(max_lnvcs=8, max_processes=4,
                    transports=(("box", "ring"),))

    def poller(env):
        news = yield from env.open_receive("news", BROADCAST)
        box = yield from env.open_receive("box", FCFS)
        got = []
        for _ in range(2):
            which, payload = yield from select_receive(env, (news, box))
            got.append(payload)
        return got

    def speaker(env):
        yield from env.compute(instrs=9_000)
        box = yield from env.open_send("box")
        yield from env.message_send(box, b"ring")
        yield from env.compute(instrs=9_000)
        news = yield from env.open_send("news")
        yield from env.message_send(news, b"list")

    view, (results, *_) = _both(poll_loop, [poller, speaker], cfg=cfg)
    assert results["p0"] == [b"ring", b"list"]
    assert [ent[1] for ent in view._fs_poll_cache.values()] == [None]


def test_id_outside_the_table_is_rejected_at_entry(poll_loop):
    """Not even the live circuit ahead of it in the set is checked."""

    def poller(env):
        box = yield from env.open_receive("box", FCFS)
        t0 = env.now()
        try:
            yield from env.poll_receive(
                (box, 31337), Work(instrs=400, label="app-compute"))
        except UnknownLNVCError as exc:
            return str(exc), env.now() - t0

    view, (results, *_) = _both(poll_loop, [poller])
    assert results["p0"] == ("lnvc id 31337: no such slot", 0.0)
    assert not view._fs_poll_cache


@pytest.mark.parametrize("wrap", [
    np.int64, lambda box: enum.IntEnum("Cid", {"BOX": box}).BOX],
    ids=["numpy", "intenum"])
def test_ids_need_not_be_exactly_int(wrap, poll_loop):
    """The id handed in comes back, whatever integer type it is."""

    def poller(env):
        cid = wrap((yield from env.open_receive("box", FCFS)))
        which, payload = yield from select_receive(env, (cid,))
        return which is cid, payload

    def speaker(env):
        yield from env.compute(instrs=9_000)  # p0 is idle-polling by now
        box = yield from env.open_send("box")
        yield from env.message_send(box, b"typed")

    _, (results, *_) = _both(poll_loop, [poller, speaker])
    assert results["p0"] == (True, b"typed")


def test_poll_receive_needs_a_circuit():
    def poller(env):
        yield from env.poll_receive((), Work(instrs=1))

    with pytest.raises(ValueError):
        SimRuntime().run([poller])


@pytest.mark.parametrize("runtime", [ThreadRuntime, ProcRuntime],
                         ids=["threads", "procs"])
def test_same_program_on_real_runtimes(runtime):
    """Real runtimes interpret classic effects: the per-check loop."""

    def chooser(env):
        news = yield from env.open_receive("news", BROADCAST)
        box = yield from env.open_receive("box", FCFS)
        yield from barrier(env, "go", 2)
        got = []
        for _ in range(3):
            which, payload = yield from select_receive(env, (news, box))
            got.append(("news" if which == news else "box", bytes(payload)))
        yield from env.close_receive(news)
        yield from env.close_receive(box)
        return sorted(got)

    def speaker(env):
        news = yield from env.open_send("news")
        box = yield from env.open_send("box")
        yield from barrier(env, "go", 2)
        yield from env.message_send(box, b"one")
        yield from env.message_send(news, b"two")
        yield from env.message_send(box, b"three")
        yield from env.close_send(news)
        yield from env.close_send(box)

    result = runtime(join_timeout=60).run([chooser, speaker])
    assert result.results["p0"] == [
        ("box", b"one"), ("box", b"three"), ("news", b"two")]
