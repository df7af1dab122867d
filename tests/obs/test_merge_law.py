"""The merge law, through the one entry: ``child()`` / ``snapshot()`` /
``merge()``.

One simulated run's hook stream is written down, dealt to ``k`` child
recorders the way the real runtimes deal it (each process's hooks to one
child), and the children's pickled snapshots are merged back in every
order, and pairwise first.  Whatever the order:

* every export is equal — those that list stored records one by one are
  compared as multisets, since merge order is the order records are
  stored in;
* the ``total`` / ``dropped`` books are equal, also when a log is too
  tight to keep everything (then *which* spans survive follows the
  order, how many do not; the tracer's stride sample is the same set
  in every order);
* counters, gauges, digests, the tracer's stored events and its e2e
  sketch hold the values the unsplit recorder holds, and with one child
  the merged recorder exports the unsplit recorder's bytes.  The sketch
  pairs a send with receives heard by other children at merge time, and
  those latencies reach the timeline's e2e digests then; two hand-fed
  cases show the pairing complete in every order.

The tape's floats are rounded to multiples of 2⁻²⁰ s, so every float sum
in the test is exact and therefore order-free: a difference between two
merge orders is a defect of a fold, never of float addition (which the
runtimes sidestep by merging in rank order).

Also here: a refused merge changes nothing (it used to fold spans, locks,
work and kinds before the timeline's width check raised).
"""

import ast
import itertools
import json
import pickle
import types

import pytest

from repro.bench.workloads import broadcast_throughput
from repro.obs import CausalTracer, Recorder, Timeline

HOOKS = ("on_charge", "on_acquire", "on_release", "on_chan_wait", "on_wake",
         "circuit_opened", "pool", "msg_sent", "msg_received", "queue_depth",
         "msgs_freed", "gauge")

GRID = 2.0 ** -20


def _on_grid(x):
    """Floats to the 2⁻²⁰ s grid (ints, strings and bools stay)."""
    if isinstance(x, float):
        return round(x / GRID) * GRID
    if isinstance(x, (list, tuple)):
        return type(x)(_on_grid(v) for v in x)
    return x


class Tape(Recorder):
    """A recorder that also writes down every hook call it hears, with
    the clock reading a probe call would stamp it with."""

    def __init__(self) -> None:
        super().__init__(causal=True, timeline=True)
        self.calls: list[tuple] = []


def _taped(name):
    def hook(self, *args, **kwargs):
        self.calls.append((name, _on_grid(self.now()), _on_grid(args),
                           {k: _on_grid(v) for k, v in kwargs.items()}))
        return getattr(Recorder, name)(self, *args, **kwargs)
    return hook


for _name in HOOKS:
    setattr(Tape, _name, _taped(_name))


@pytest.fixture(scope="module")
def tape() -> list[tuple]:
    rec = Tape()
    broadcast_throughput(4, 64, messages=12, runtime="sim", recorder=rec)
    names = {name for name, *_ in rec.calls}
    assert names >= set(HOOKS) - {"gauge"}, set(HOOKS) - names
    return rec.calls


def _owner(name: str, args: tuple, last: int) -> int:
    """Rank of the process a hook call belongs to: the lock and channel
    hooks name it, ``msg_sent`` / ``msg_received`` carry its pid, and
    the sites that carry neither go with the call before them."""
    if name.startswith("on_"):
        return int(args[1][1:])
    if name in ("msg_sent", "msg_received"):
        return args[0]
    return last


def _play(tape, make, k: int | None = None) -> list[Recorder]:
    """Replay ``tape`` into ``make()`` itself (``k=None``) or into ``k``
    of its children, process ``r`` to child ``r % k``."""
    now = [0.0]
    parent = make()
    parent.attach(types.SimpleNamespace(), lambda: now[0], "sim")
    sinks = [parent] if k is None else [parent.child() for _ in range(k)]
    owner = 0
    for name, t, args, kwargs in tape:
        now[0] = t
        owner = _owner(name, args, owner)
        getattr(sinks[owner % len(sinks)], name)(*args, **kwargs)
    return sinks


def _merged(make, blobs) -> Recorder:
    out = make()
    for blob in blobs:
        out.merge(pickle.loads(blob))
    return out


def _canonical(exported: dict[str, str]) -> dict[str, str]:
    """Exports that list stored records, as multisets of records."""
    out = dict(exported)
    doc = json.loads(out["chrome_trace"])
    doc["traceEvents"].sort(key=lambda ev: json.dumps(ev, sort_keys=True))
    out["chrome_trace"] = json.dumps(doc, sort_keys=True)
    if "causal_events" in out:
        out["causal_events"] = repr(
            sorted(ast.literal_eval(out["causal_events"])))
        out["e2e"] = repr(sorted(ast.literal_eval(out["e2e"])))
    return out


def _cells(rec: Recorder) -> dict:
    """Every counter, gauge and digest cell of ``rec``, plus the sketch."""
    cells = {
        "locks": {lid: (ls.acquires, ls.reacquires, ls.contended,
                        ls.wait_seconds, ls.max_wait, ls.hold_seconds,
                        ls.wait_hist.counts, ls.hold_hist.counts)
                  for lid, ls in rec.locks.items()},
        "work": {label: (ws.count, ws.instrs, ws.flops, ws.seconds)
                 for label, ws in rec.work.items()},
        "kinds": {p: dict(c) for p, c in rec.kinds.items()},
        "chan_waits": (dict(rec.chan_waits), rec.chan_wait_seconds),
    }
    if rec.timeline is not None:
        cells["windows"] = {
            idx: (dict(win.counters), dict(win.gauges),
                  {k: d.counts for k, d in win.digests.items()})
            for idx, win in rec.timeline.windows.items()}
    if rec.causal is not None:
        cells["causal"] = _tracer_cells(rec.causal)
    return cells


def _tracer_cells(c) -> tuple:
    return (c.total, c.dropped, sorted(c.events), c.stride,
            c.msgs, c.nbytes, sorted(c.e2e))


def _books(rec: Recorder) -> tuple:
    c = rec.causal
    return (rec.total, rec.dropped_spans, len(rec.spans)) + (
        () if c is None else (c.total, c.dropped, len(c.events)))


#: Recorders whose spans all fit (the tracers' stride samples are
#: order-free at any bound).
ROOMY = {
    "plain": lambda: Recorder(),
    "causal": lambda: Recorder(causal=True),
    "bounded-causal": lambda: Recorder(causal=CausalTracer(limit=48)),
    "timeline": lambda: Recorder(timeline=Timeline(width=0.002)),
    "all": lambda: Recorder(causal=CausalTracer(limit=48),
                            timeline=Timeline(width=0.002)),
}

#: Logs that overflow: a 40-span prefix, a 30-event stride sample.
TIGHT = {
    "tight": lambda: Recorder(limit=40, causal=CausalTracer(limit=30)),
}


def _orders(blobs):
    """Every order for up to three children, a spread of twelve beyond."""
    perms = list(itertools.permutations(blobs))
    return perms if len(perms) <= 6 else perms[::len(perms) // 12]


@pytest.mark.parametrize("k", [1, 2, 3, 5])
@pytest.mark.parametrize("config", [*ROOMY, *TIGHT])
def test_merge_order_cannot_matter(tape, exports, config, k):
    make = {**ROOMY, **TIGHT}[config]
    unsplit, = _play(tape, make)
    children = _play(tape, make, k)
    blobs = [pickle.dumps(child.snapshot()) for child in children]

    merged = [_merged(make, order) for order in _orders(blobs)]
    if k > 2:  # pairwise first: (a + b) + (rest), as snapshots of merges
        left, right = _merged(make, blobs[:2]), _merged(make, blobs[2:])
        left.merge(pickle.loads(pickle.dumps(right.snapshot())))
        merged.append(left)
    if unsplit.timeline is not None:
        # A slot keeps the first name it is given, so for a recycled
        # slot the name follows the merge order — the one fold that
        # does.  Checked here, then taken out of the comparison.
        for m in merged:
            for slot, name in m.timeline.names.items():
                assert any(c.timeline.names.get(slot) == name
                           for c in children), (slot, name)
            m.timeline.names = dict(unsplit.timeline.names)

    assert {_books(m) for m in merged} == {_books(unsplit)}
    if config in TIGHT:  # which spans survive follows the order
        assert unsplit.dropped_spans and unsplit.causal.dropped
        assert unsplit.causal.stride > 1
        for m in merged:
            assert _tracer_cells(m.causal) == _tracer_cells(unsplit.causal)
        return
    first = _canonical(exports(merged[0]))
    for m in merged[1:]:
        assert _canonical(exports(m)) == first
    assert _canonical(exports(unsplit)) == first
    for m in merged:
        assert _cells(m) == _cells(unsplit)
    if k == 1:  # one child: the unsplit recorder's bytes, unsorted
        assert exports(merged[0]) == exports(unsplit)


def test_the_tape_drives_the_stride_sample(tape):
    unsplit, = _play(tape, ROOMY["all"])
    assert unsplit.causal.stride > 1 and unsplit.causal.dropped
    assert len(unsplit.causal.e2e) > 40 and len(unsplit.timeline.windows) > 3


def _bounded() -> Recorder:
    return Recorder(causal=CausalTracer(limit=8),
                    timeline=Timeline(width=0.5))


def _e2e_digest_total(rec: Recorder) -> int:
    return rec.timeline.totals().digests["circuit:3|e2e"].total


@pytest.mark.parametrize("order", [(0, 1, 2), (2, 1, 0), (1, 0, 2)])
def test_bounded_tracer_pairs_deliveries_across_children(order):
    """The procs regime by hand: the sender's child hears the send, two
    receivers' children each a BROADCAST receive, the second also the
    free.  Whatever the merge order, both deliveries reach the sketch
    and the timeline's e2e digest."""
    parent = _bounded()
    now = [0.0]
    parent.attach(types.SimpleNamespace(), lambda: now[0], "wall")
    sender, first, last = kids = [parent.child() for _ in range(3)]
    now[0] = 0.5
    sender.msg_sent(0, 3, 1, 0, 64, 7, 1, 0.125, 0.25, 0.375)
    now[0] = 1.0
    first.msg_received(1, 3, 1, 0, 64, 0, 0.625, 0.75, 0.875)
    now[0] = 2.0
    last.msgs_freed(3, 1, [(0, 0, 64)])
    last.msg_received(2, 3, 1, 0, 64, 0, 1.25, 1.5, 1.75)
    assert [len(k.causal.e2e) for k in kids] == [0, 0, 0]
    blobs = [pickle.dumps(k.snapshot()) for k in kids]
    merged = _merged(_bounded, [blobs[i] for i in order])
    assert sorted(merged.causal.e2e) == [0.875 - 0.125, 1.75 - 0.125]
    assert not merged.causal._orphans and merged.causal.total == 4
    assert _e2e_digest_total(merged) == len(merged.causal.e2e)
    # Each latency lands in the window holding its receive's t2.
    windows = {idx for idx, win in merged.timeline.windows.items()
               if "circuit:3|e2e" in win.digests}
    assert windows == {1, 3}


@pytest.mark.parametrize("order", [(0, 1), (1, 0)])
def test_a_sender_that_receives_its_own_broadcast_last_keeps_its_stamp(
        order):
    """The sender's child also receives the broadcast, after the other
    receiver's child, so its receive frees the message before its own
    recv hook.  The stamp stays for the merge to pair the other child's
    receive."""
    parent = _bounded()
    now = [0.0]
    parent.attach(types.SimpleNamespace(), lambda: now[0], "wall")
    sender, other = kids = [parent.child() for _ in range(2)]
    now[0] = 0.5
    sender.msg_sent(0, 3, 1, 0, 64, 7, 1, 0.125, 0.25, 0.375)
    now[0] = 1.0
    other.msg_received(1, 3, 1, 0, 64, 0, 0.625, 0.75, 0.875)
    now[0] = 2.0
    sender.msgs_freed(3, 1, [(0, 0, 64)])
    sender.msg_received(0, 3, 1, 0, 64, 0, 1.25, 1.5, 1.625)
    assert [len(k.causal.e2e) for k in kids] == [1, 0]
    blobs = [pickle.dumps(k.snapshot()) for k in kids]
    merged = _merged(_bounded, [blobs[i] for i in order])
    assert sorted(merged.causal.e2e) == [0.75, 1.5]
    assert _e2e_digest_total(merged) == 2


# -- a refused merge changes nothing -------------------------------------------


def _fed(rec: Recorder, process: str = "p0") -> Recorder:
    rec.on_acquire(0.010, process, 2, 0.004, contended=True)
    rec.on_release(0.020, process, 2, 0.010)
    rec.on_charge(0.030, process, "app", 0.001, instrs=7)
    if rec.timeline is not None:
        rec.timeline.gauge(0.020, "circuit:0|depth", 3.0)
    return rec


def test_refused_merge_leaves_the_recorder_as_it_was(exports):
    a = _fed(Recorder(timeline=Timeline(width=0.05)))
    before = exports(a)
    wide = _fed(Recorder(timeline=Timeline(width=0.10)), "p1")
    with pytest.raises(ValueError, match="width"):
        a.merge(wide.snapshot())
    assert exports(a) == before
    assert (a.total, set(a.locks), set(a.work), set(a.kinds)) == (
        3, {2}, {"app"}, {"p0"})

    simulated = _fed(Recorder(timeline=Timeline(width=0.05)), "p1")
    simulated.clock = "sim"
    with pytest.raises(ValueError, match="clock"):
        a.merge(simulated.snapshot())
    assert exports(a) == before

    a.merge(_fed(Recorder(timeline=Timeline(width=0.05)), "p1").snapshot())
    assert a.total == 6 and set(a.kinds) == {"p0", "p1"}
    assert a.locks[2].acquires == 2 and a.work["app"].instrs == 14
    assert a.timeline.totals().gauges["circuit:0|depth"].n == 2
