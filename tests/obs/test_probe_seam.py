"""The observer seam: one probe slot, one clock, no effects.

``MPFView.probe`` is the only thing the message path knows about
observers (docs/observability.md, "Attaching observers").  Pinned here:

* the seam's contract, seen by a recording fake in the slot: per
  delivered message one ``msg_sent``, one ``msg_received`` per receiver
  and — free-list transport only — one free, with monotone stamps, on
  both transports, on the simulator and on real threads, through the
  discard path of circuit deletion and a send refused for want of
  blocks;
* its shape in the source: no tracer or timeline is named under
  ``core/``, ``runtime/`` or in the fault mutants, and the parameters
  the seam replaced are gone;
* what is observed did not change, when the seam went in or when the
  one store went in behind it: digests of every export of three traced
  simulator runs, recorded at the parent commit;
* one time axis: a blocking client's counters, digests and causal stamps
  land inside the run, whichever recorder of a tree heard them.
"""

import ast
import hashlib
import inspect
import itertools
import json
import pathlib
import pickle
import sys
import time
import uuid

import pytest

import repro
from repro.bench.workloads import broadcast_throughput, fcfs_throughput
from repro.core import ops
from repro.core.errors import OutOfMessageMemoryError
from repro.core.freelist import fl_alloc
from repro.core.layout import MPFConfig
from repro.core.ops import MPFView
from repro.core.protocol import BROADCAST, FCFS
from repro.obs import CausalTracer, Recorder, pair_deliveries
from repro.runtime.blocking import MPFSystem
from repro.runtime.posix import PosixSegment
from repro.runtime.sim import SimRuntime
from repro.runtime.threads import ThreadRuntime, drive
from repro.serve.sweep import run_point
from repro.serve.topology import ServeShape
from repro.testing import DirectRunner, make_view

# -- a recording fake in the slot ---------------------------------------------


class FakeProbe:
    """Whatever the sites call, in order; ``now`` never repeats a value."""

    def __init__(self):
        self.calls: list[tuple] = []
        self._ticks = itertools.count(1)

    def now(self) -> float:
        return float(next(self._ticks))

    def __getattr__(self, name):
        def record(*args, **kwargs):
            self.calls.append((name, args, kwargs))
        return record

    def named(self, name: str) -> list[tuple]:
        return [(a, kw) for n, a, kw in self.calls if n == name]


N_MSGS, N_RECEIVERS = 5, 2


def fanout_workers(fake):
    """1 sender -> 2 BROADCAST receivers, joined by a ready handshake
    (real runtimes interleave arbitrarily; see docs/simulator.md)."""

    def sender(env):
        env.view.probe = fake
        cid = yield from env.open_send("data")
        rid = yield from env.open_receive("ready", FCFS)
        for _ in range(N_RECEIVERS):
            yield from env.message_receive(rid)
        for i in range(N_MSGS):
            yield from env.message_send(cid, bytes([i]) * 24)
        yield from env.close_send(cid)
        yield from env.close_receive(rid)

    def receiver(env):
        env.view.probe = fake
        cid = yield from env.open_receive("data", BROADCAST)
        rdy = yield from env.open_send("ready")
        yield from env.message_send(rdy, b"up")
        got = []
        for _ in range(N_MSGS):
            got.append((yield from env.message_receive(cid)))
        yield from env.close_send(rdy)
        yield from env.close_receive(cid)
        return got

    return [sender] + [receiver] * N_RECEIVERS


@pytest.mark.parametrize("transport", ["freelist", "ring"])
@pytest.mark.parametrize("runtime", [SimRuntime, ThreadRuntime])
def test_one_call_per_message_event(runtime, transport):
    fake = FakeProbe()
    cfg = MPFConfig(max_lnvcs=8, max_processes=4, transport=transport)
    result = runtime().run(fanout_workers(fake), cfg=cfg)
    assert all(len(got) == N_MSGS for got in result.result_list()[1:])

    names = dict(a for a, _ in fake.named("circuit_opened"))
    by_name = {name: slot for slot, name in names.items()}
    assert set(by_name) == {"data", "ready"}

    # msg_sent(pid, slot, gen, seqno, length, blocks, depth, t0, t1, t2)
    sent = [a for a, _ in fake.named("msg_sent")]
    keys = [a[1:4] for a in sent]
    assert len(set(keys)) == len(keys) == N_MSGS + N_RECEIVERS
    # msg_received(pid, slot, gen, seqno, length, fcfs, t0, t1, t2)
    received = [a for a, _ in fake.named("msg_received")]
    for key in keys:
        readers = [a[0] for a in received if a[1:4] == key]
        want = N_RECEIVERS if key[0] == by_name["data"] else 1
        assert len(readers) == len(set(readers)) == want, key
    assert len(received) == N_MSGS * N_RECEIVERS + N_RECEIVERS
    for a in sent:
        assert 0 < a[7] < a[8] < a[9], a
    for a in received:
        assert 0 < a[6] < a[7] < a[8], a

    # msgs_freed(slot, gen, depth, [(sender, seqno, length), ...])
    freed = [(a[0], a[1], seqno) for a, _ in fake.named("msgs_freed")
             for _, seqno, _ in a[3]]
    if transport == "freelist":
        assert sorted(freed) == sorted(keys)
        assert fake.named("queue_depth")
        # Every ring field stays unset on the free-list transport.
        assert not any("occupancy" in kw for _, _, kw in fake.calls)
    else:
        assert freed == [] and not fake.named("queue_depth")
        assert all("occupancy" in kw for _, kw in
                   fake.named("msg_sent") + fake.named("msg_received"))


def test_circuit_deletion_reports_its_discards_once():
    view = make_view()
    view.probe = fake = FakeProbe()
    run = DirectRunner(view).run
    cid = run(ops.open_send(view, 3, "doomed"))
    for i in range(3):
        run(ops.message_send(view, 3, cid, b"unread %d" % i))
    run(ops.close_send(view, 3, cid))  # last connection: circuit deleted
    (args, kwargs), = fake.named("msgs_freed")
    slot, gen, depth, msgs = args
    assert (slot, gen, depth) == (cid & 1023, cid >> 10, 0)
    assert msgs == [(3, i, 8) for i in range(3)] and kwargs == {"discard": 1}
    assert len(fake.named("msg_sent")) == 3 and not fake.named("msg_received")


def test_refused_send_reports_the_dry_pool_and_no_message():
    view = make_view(message_pool_bytes=120)  # a handful of 10-byte blocks
    view.probe = fake = FakeProbe()
    run = DirectRunner(view).run
    cid = run(ops.open_send(view, 0, "tight"))
    accepted = 0
    with pytest.raises(OutOfMessageMemoryError, match="block pool"):
        while True:
            run(ops.message_send(view, 0, cid, b"x" * 30))
            accepted += 1
    assert accepted and len(fake.named("msg_sent")) == accepted
    pools = fake.named("pool")
    assert len(pools) == accepted + 1
    # Complete allocations report the level they left; the refused one
    # names the pool that ran dry and what it had popped by then.
    assert all("live_blocks" in kw and "dry" not in kw for _, kw in pools[:-1])
    (popped,), kwargs = pools[-1]
    assert list(kwargs) == ["dry"] and [n for _, n in popped] == [1]
    assert kwargs["dry"] not in [off for off, _ in popped]


# -- the seam's shape in the source --------------------------------------------


def _identifiers(path: pathlib.Path) -> set[str]:
    out = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, (ast.arg, ast.keyword)):
            out.add(node.arg)
    return out


def test_message_path_names_no_tracer_and_no_timeline():
    src = pathlib.Path(repro.__file__).parent
    files = [*(src / "core").glob("*.py"), *(src / "runtime").glob("*.py"),
             src / "check" / "faults.py"]
    assert len(files) > 15
    for path in files:
        assert not {"causal", "timeline"} & _identifiers(path), path


def test_parameters_the_seam_replaced_are_gone():
    assert "probe" in MPFView.__slots__
    assert not {"causal", "timeline", "recorder"} & set(MPFView.__slots__)
    assert "watch" not in inspect.signature(fl_alloc).parameters
    assert "clock" not in inspect.signature(drive).parameters
    from repro.obs import causal, timeline

    for sink in (causal, timeline):  # pure sinks: handed their stamps
        assert not hasattr(sink, "time")
    assert "clock" not in inspect.signature(causal.CausalTracer).parameters
    assert "clock" not in inspect.signature(timeline.Timeline).parameters


# -- what is observed did not change -------------------------------------------


def _fcfs_freelist() -> Recorder:
    rec = Recorder(causal=True, timeline=True)
    fcfs_throughput(4, 16, messages=24, runtime="sim", recorder=rec)
    return rec


def _broadcast_ring() -> Recorder:
    rec = Recorder(causal=True, timeline=True)
    broadcast_throughput(4, 64, messages=24, runtime="sim", recorder=rec,
                         transport="ring")
    return rec


def _serve_knee() -> Recorder:
    # A tight bound: the stride sample, the e2e sketch and the
    # timeline's e2e digests.
    rec = Recorder(causal=CausalTracer(limit=512), timeline=True)
    run_point(ServeShape(), 300.0, 240, recorder=rec)
    assert rec.causal.stride > 1 and len(rec.causal.e2e) > 500
    return rec


#: First 16 hex digits of the sha256 of each export of the run (the
#: ``exports`` fixture, tests/obs/conftest.py): every text / JSON / DOT
#: surface, the causal event tuples with all four stamps, the e2e sketch
#: and the total / dropped books — recorded at e7455da, the last commit
#: on which each sink stored and merged its own cells, before the first
#: edit of the store that replaced them.  The first two runs' ``e2e``,
#: ``timeline_doc`` and ``prometheus`` were re-pinned when every tracer
#: gained the e2e sketch; without their e2e series they still hash to
#: :data:`BEFORE_THE_SKETCH`.  The bounded run's ``prometheus`` and
#: ``flow_dot`` were re-pinned when the tracer began counting traffic
#: exactly instead of from its stride sample: only the values of the four
#: ``mpf_message*_total`` families and the DOT edge lines changed (118
#: sampled edges became the run's 209).
PINNED = {
    _fcfs_freelist: {
        "books": "d59b0d4da199fe2b", "causal_events": "d6c41e64cbcb22a7",
        "chrome_trace": "94ff4d968a0cc104", "e2e": "f0f5e1dfb525e03f",
        "flow_dot": "e859db96f2bb6270", "jsonl": "ecdae6c37c593892",
        "lock_profile": "6e80cc6049196688", "prometheus": "7de8f9f3c6c595aa",
        "sojourn": "5831c63f605cee5a", "summary": "1833bd8db5cf997b",
        "timeline_doc": "93093d18e5577ce6",
    },
    _broadcast_ring: {
        "books": "5797b50d05dbdeca", "causal_events": "cba2f54b837567a6",
        "chrome_trace": "4e310f701e82a4d0", "e2e": "4fd0d5ed293e5ce4",
        "flow_dot": "d49c3245c3c9b6d0", "jsonl": "beda0658da366540",
        "lock_profile": "d42c625dd4414661", "prometheus": "10bdbddc9c8e809a",
        "sojourn": "a1d097e4ae8c063a", "summary": "455f8e19b705a5f1",
        "timeline_doc": "6d12d54b175ae885",
    },
    _serve_knee: {
        "books": "457850383d6f6724", "causal_events": "18ca1f148f31919d",
        "chrome_trace": "2f8440e38e9b1d63", "e2e": "ee75a9f2da7314ac",
        "flow_dot": "a4b625a5ea611763", "jsonl": "9a8ff112fefcaf86",
        "lock_profile": "93883bf3b289f3a7", "prometheus": "21178fd61e3bf06a",
        "sojourn": "3770f97d653c662f", "summary": "bc61c998b303a3e9",
        "timeline_doc": "44c6225327e9421c",
    },
}


def _digests(exported: dict[str, str]) -> dict[str, str]:
    return {name: hashlib.sha256(text.encode()).hexdigest()[:16]
            for name, text in exported.items()}


@pytest.mark.parametrize("run", PINNED, ids=lambda f: f.__name__.strip("_"))
def test_traced_snapshot_is_the_parents(run, exports):
    """What a traced run exports is what it exported before the store —
    read off the recorder itself, and again off a fresh ``Recorder()``
    that merged the run's pickled snapshot."""
    rec = run()
    assert _digests(exports(rec)) == PINNED[run]
    fresh = Recorder()
    fresh.merge(pickle.loads(pickle.dumps(rec.snapshot())))
    assert _digests(exports(fresh)) == PINNED[run]


#: ``timeline_doc`` / ``prometheus`` of the first two runs at e7455da,
#: when their tracers kept a prefix and no e2e sketch.
BEFORE_THE_SKETCH = {
    _fcfs_freelist: ("d73494471c3ce979", "426a36266e54ceea"),
    _broadcast_ring: ("b16bc4f9aa772813", "47e1610e1ef3cd4c"),
}


@pytest.mark.parametrize("run", BEFORE_THE_SKETCH,
                         ids=lambda f: f.__name__.strip("_"))
def test_the_sketch_added_only_e2e_series(run, exports):
    """The e2e sketch holds what post-hoc pairing of the stored events
    finds, and the timeline's e2e digests are all it added."""
    rec = run()
    pairs = pair_deliveries(rec.causal)
    assert sorted(rec.causal.e2e) == sorted(r.t2 - s.t0 for s, r in pairs)
    doc = rec.timeline.to_doc()
    for win in doc["windows"]:
        win["digests"] = {k: d for k, d in win["digests"].items()
                          if not k.endswith("|e2e")}
    prom = "".join(line + "\n" for line in
                   exports(rec)["prometheus"].splitlines()
                   if 'metric="e2e"' not in line)
    assert _digests({"doc": json.dumps(doc, sort_keys=True),
                     "prom": prom}) == dict(zip(("doc", "prom"),
                                                BEFORE_THE_SKETCH[run]))


# -- one time axis --------------------------------------------------------------

BLOCKING_CFG = MPFConfig(max_lnvcs=8, max_processes=4, max_messages=64,
                         message_pool_bytes=1 << 16)


def _windows_with(tl, kind: str, suffix: str, prefix: str = "") -> set[int]:
    return {idx for idx, win in tl.windows.items()
            if any(k.startswith(prefix) and k.endswith(suffix)
                   for k in getattr(win, kind))}


def _assert_one_axis(rec: Recorder, elapsed: float) -> None:
    tl = rec.timeline
    assert tl.windows
    for idx in tl.windows:
        assert 0 <= idx <= elapsed / tl.width, (idx, elapsed)
    sent = _windows_with(tl, "counters", "|sent", "circuit:")
    e2e = _windows_with(tl, "digests", "|e2e", "circuit:")
    wait = _windows_with(tl, "digests", "|wait", "lock:")
    assert sent and e2e and wait
    assert sent & e2e & wait, (sent, e2e, wait)
    assert rec.causal.events
    for e in rec.causal.events:
        stamps = (e.t0,) if e.kind == "free" else (e.t0, e.t1, e.t2, e.t3)
        assert all(0 <= t <= elapsed for t in stamps), e
    for span in rec.spans:
        assert 0 <= span.time <= elapsed, span


def _ping_pong(sender, receiver, n: int = 5) -> None:
    cid = sender.open_send("loop")
    receiver.open_receive("loop", FCFS)
    for i in range(n):
        sender.message_send(cid, bytes([i]) * 32)
        assert receiver.message_receive(cid) == bytes([i]) * 32
    sender.close_send(cid)
    receiver.close_receive(cid)


def _traced() -> Recorder:
    return Recorder(causal=CausalTracer(limit=1000), timeline=True)


def test_blocking_client_records_on_one_time_axis():
    start = time.perf_counter()
    rec = _traced()
    mpf = MPFSystem(BLOCKING_CFG).client(0, recorder=rec)
    _ping_pong(mpf, mpf)
    _assert_one_axis(rec, time.perf_counter() - start)


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="POSIX shared memory")
def test_posix_client_records_on_one_time_axis():
    start = time.perf_counter()
    rec = _traced()
    name = f"mpftest-{uuid.uuid4().hex[:12]}"
    with PosixSegment.create(name, BLOCKING_CFG) as seg:
        mpf = seg.client(0, recorder=rec)
        _ping_pong(mpf, mpf)
    _assert_one_axis(rec, time.perf_counter() - start)


def test_child_recorders_of_two_clients_merge_onto_one_axis():
    """docs/observability.md, "Recording blocking clients": one child per
    client.  The message sites report to the last attached, the lock
    hooks to each client's own — all on the clock the parent anchored."""
    start = time.perf_counter()
    rec = _traced()
    system = MPFSystem(BLOCKING_CFG)
    r0, r1 = rec.child(), rec.child()
    _ping_pong(system.client(0, recorder=r0), system.client(1, recorder=r1))
    assert r0.locks and r1.locks
    rec.merge(r0.snapshot())
    rec.merge(r1.snapshot())
    _assert_one_axis(rec, time.perf_counter() - start)
    assert system.view.probe is r1
