"""The engine-resident poll section: identity, budget, and step semantics.

``ops.poll_receive`` retires the idle wait of ``select_receive`` as one
looping :class:`~repro.core.effects.FusedSection` (``D_JUMP`` tails
that lead back to a circuit's head).  It rides on the same gate as every engine fast path
— the simulated schedule is the classic one, event for event — and this
module pins it:

* a 3-poller + 1-sender program gives the same clock, event count,
  per-lock acquire/contended counts, span stream and per-label charge
  counts as the per-check loop (a view built with ``view.fuse`` off,
  as on the real runtimes) under {plain, ``until``-sliced, controlled
  seeded walk, ``Recorder``, unobserved} — and the values
  the parent commit's three interpreters produced (recorded there,
  pinned here: the engine has one loop now, so there is no second path
  to compare against);
* the simulated polling cost of Gauss-Jordan 64x64 (seed 1987) is
  88.44 ``check-fixed`` charges per ``select_receive``, whatever the
  host-side call count reads;
* the event budget fires inside a section that never returns to the
  generator (the lone-poller hang);
* a jump back to the head is exactly "section ends, generator resumes,
  next section starts", ``D_JUMP`` replaces the remaining steps, and
  ``drop_wake`` leaves poll sections alone.
"""

import hashlib

import pytest

from repro.apps import gauss_jordan as gj
from repro.check.faults import drop_wake
from repro.check.scheduler import ControlledPolicy, RandomPolicy
from repro.core import ops
from repro.core.costmodel import DEFAULT_COSTS
from repro.core.effects import (
    D_JUMP,
    S_ACQ,
    S_CALL,
    S_CHARGE,
    S_MANY,
    S_REL,
    ChargeMany,
    FusedSection,
)
from repro.core.protocol import BROADCAST, FCFS
from repro.core.work import Work
from repro.machine.balance import BALANCE_21000
from repro.machine.cpu import BalanceTiming
from repro.machine.engine import Engine, SimulationError, ZeroTimingModel
from repro.obs import Recorder
from repro.patterns import select_receive
from repro.runtime.base import Env
from repro.runtime.sim import SimRuntime
from repro.testing import make_view


def _engine(fuse, nprocs, timing=None, **kw):
    """An engine over a fresh segment, as SimRuntime would build it
    (``fuse=False``: the per-check loop the real runtimes run)."""
    view = make_view(max_processes=max(2, nprocs))
    view.fuse = fuse
    eng = Engine(view.cfg.n_locks, view.cfg.n_channels,
                 timing or BalanceTiming(BALANCE_21000, DEFAULT_COSTS), **kw)
    return eng, view


def _spawn(eng, view, workers):
    for rank, worker in enumerate(workers):
        env = Env(view, rank, len(workers), lambda: eng.now)
        eng.spawn(f"p{rank}", worker(env))


# -- identity matrix ----------------------------------------------------------

_NEWS = 3  # broadcasts every poller hears
_MAIL = 2  # private messages per poller


def _poller(env):
    news = yield from env.open_receive("news", BROADCAST)
    box = yield from env.open_receive(f"box{env.rank}", FCFS)
    rdy = yield from env.open_send("rdy")
    yield from env.message_send(rdy, b"up")
    got = []
    for _ in range(_NEWS + _MAIL):
        cid, payload = yield from select_receive(env, (news, box))
        got.append(("news" if cid == news else "box", bytes(payload)))
    yield from env.close_send(rdy)
    return got


def _sender(env):
    rdy = yield from env.open_receive("rdy", FCFS)
    for _ in range(3):
        yield from env.message_receive(rdy)
    news = yield from env.open_send("news")
    boxes = []
    for rank in range(3):
        boxes.append((yield from env.open_send(f"box{rank}")))
    for i in range(_NEWS):
        # Long enough that every poller goes idle between messages.
        yield from env.compute(instrs=30_000)
        yield from env.message_send(news, b"n%d" % i)
        if i < _MAIL:
            for rank, box in enumerate(boxes):
                yield from env.compute(instrs=7_000)
                yield from env.message_send(box, b"m%d.%d" % (rank, i))
    return "sent"


_WORKERS = [_poller, _poller, _poller, _sender]


def _run_matrix_cell(mode, fuse):
    """``recorder`` keeps every span, ``unobserved`` has no recorder,
    the other modes count labels and locks only (``limit=0``)."""
    recorder = (None if mode == "unobserved" else
                Recorder() if mode == "recorder" else Recorder(limit=0))
    policy = None
    timing = None
    if mode == "controlled":
        policy = ControlledPolicy(RandomPolicy(seed=11))
        timing = ZeroTimingModel()  # every pending event is a choice
    eng, view = _engine(fuse, len(_WORKERS), timing=timing,
                        recorder=recorder, scheduler=policy)
    _spawn(eng, view, _WORKERS)
    if mode == "sliced":
        t = 0.0
        while any(p.state not in ("done", "failed") for p in eng.processes):
            t += 0.0137
            eng.run(until=t)
    eng.run()
    out = {
        "sim_seconds": eng.now,
        "events": eng.stats.events,
        "lock_acquires": eng.stats.lock_acquires,
        "lock_contended": eng.stats.lock_contended,
        "results": eng.results(),
    }
    if recorder is not None:
        out["label_counts"] = {
            label: ws.count for label, ws in recorder.work.items()}
        out["per_lock"] = {
            lock: (st.acquires, st.contended)
            for lock, st in recorder.lock_table().items()}
    if mode == "recorder":
        out["trace"] = [tuple(span) for span in recorder.spans]
        out["recorder_labels"] = dict(recorder.charge_breakdown())
    if policy is not None:
        out["decisions"] = (policy.decisions, policy.widths)
    return out


def _digest(obj):
    return hashlib.sha256(repr(obj).encode()).hexdigest()


# What the parent commit (ac1c7dc: classic loop, controlled twin and
# epoch batcher, all switch combinations agreeing) produced for the
# program above, recorded there with this module's `_run_matrix_cell`.
_IDLE = {"app-compute": 484, "check-fixed": 971, "check-walk": 971}
_STEADY = {  # whatever the schedule: one per open, send, receive, ...
    "close_send": 3, "open": 14, "open_receive": 7, "open_send": 7,
    "reap": 12, "recv-copy": 18, "recv-find": 18, "recv-fixed": 18,
    "recv-retire": 18, "recv-wakeup": 1, "send-alloc": 12, "send-copy": 12,
    "send-fixed": 12, "send-link": 12}


def _results(*orders):
    """Per-poller receive order, ``n``ews or ``b``ox, spelled out."""
    out = {"p3": "sent"}
    for rank, order in enumerate(orders):
        news, mail = iter(range(_NEWS)), iter(range(_MAIL))
        out[f"p{rank}"] = [
            ("news", b"n%d" % next(news)) if which == "n" else
            ("box", b"m%d.%d" % (rank, next(mail))) for which in order]
    return out


_UNOBSERVED = {
    "sim_seconds": 0.199512299999999, "events": 4795,
    "lock_acquires": 1094, "lock_contended": 321,
    "results": _results("nbnbn", "nbnbn", "nbnbn"),
}
_TIMED = {
    **_UNOBSERVED,
    "label_counts": {**_IDLE, **_STEADY},
    "per_lock": {
        0: (17, 11), 1: (41, 0), 2: (515, 308), 3: (16, 0), 4: (170, 0),
        5: (168, 1), 6: (167, 1)},
}
_PARENT = {
    "unobserved": _UNOBSERVED,
    "plain": _TIMED,
    "sliced": _TIMED,
    # (len, sha256) of the run's `Recorder.spans` as (time, process,
    # kind, name, duration, value) tuples, taken at 3b11bc4 — the last
    # commit with a raw `trace=` stream — in this mode, with the poll
    # section and with the per-check loop (the same digest both ways).
    "recorder": {**_TIMED, "trace": (
        4793,
        "dbe98196a43bf3e234ab8db7451b23efba264ce280c4cdd62feb8f5179cfbf38")},
    "controlled": {
        "sim_seconds": 0.0, "events": 718,
        "lock_acquires": 188, "lock_contended": 51,
        "label_counts": {"app-compute": 31, "check-fixed": 65,
                         "check-walk": 65, **_STEADY},
        # This walk makes p1 late to its first private message.
        "results": _results("nbnbn", "nnbbn", "nbnbn"),
        "decisions": (
            631,
            "eace34340765c0908f5611e4ff5f8d01b583a611736620b70c652f4abfa73691"),
    },
}


@pytest.mark.parametrize(
    "mode", ["plain", "sliced", "controlled", "recorder", "unobserved"])
def test_identity_matrix(mode):
    """The section and the per-check loop retire the parent's schedule,
    per mode."""
    fused, classic = (_run_matrix_cell(mode, f) for f in (True, False))
    for poller in ("p0", "p1", "p2"):
        got = classic["results"][poller]
        assert len(got) == _NEWS + _MAIL
        assert [p for which, p in got if which == "news"] == [
            b"n%d" % i for i in range(_NEWS)]
    if mode != "unobserved":
        assert classic["label_counts"]["check-fixed"] > 50, (
            "the program must actually idle-poll for the matrix to mean much")
    assert fused == classic, f"{mode}: the section diverged from the loop"
    pinned = dict(classic)
    if "trace" in pinned:
        pinned["trace"] = (len(pinned["trace"]), _digest(pinned["trace"]))
    if "decisions" in pinned:
        pinned["decisions"] = (len(pinned["decisions"][0]),
                               _digest(pinned["decisions"]))
    parent = _PARENT[mode]
    assert {k: pinned[k] for k in parent} == parent


def test_matrix_modes_agree_on_the_schedule():
    """Observation and slicing are free: same clock, events, lock totals
    as the unobserved run, same labels whatever the span limit."""
    bare = _run_matrix_cell("unobserved", True)
    plain = _run_matrix_cell("plain", True)
    assert {k: plain[k] for k in bare} == bare
    for mode in ("sliced", "recorder"):
        cell = _run_matrix_cell(mode, True)
        assert {k: cell[k] for k in plain} == plain, mode


def test_gauss64_simulated_checks_per_receive():
    """The simulated polling cost, read off the charge stream.

    The ledger's ``patterns.select_receive.checks_per_receive`` counts
    host calls to ``Env.check_receive`` and reads ~2 once the idle wait
    lives in the engine; what the simulated machine pays is this number.
    """
    calls = []

    def counting(env, ids, backoff_instrs=400):
        calls.append(1)
        return (yield from select_receive(env, ids, backoff_instrs))

    a, b = gj.make_system(64, 1987)
    rec = Recorder(limit=0)
    real = gj.select_receive
    gj.select_receive = counting
    try:
        gj.gauss_jordan_parallel(a, b, 12, runtime=SimRuntime(recorder=rec))
    finally:
        gj.select_receive = real
    per_receive = rec.work["check-fixed"].count / len(calls)
    assert round(per_receive, 2) == 88.44


# -- the event budget ---------------------------------------------------------


def _watcher(traced):
    """The budget tests' watched mode: a recorder that keeps no span."""
    return Recorder(limit=0) if traced else None


@pytest.mark.parametrize("pollers", [1, 2])
@pytest.mark.parametrize("traced", [False, True], ids=["plain", "traced"])
@pytest.mark.parametrize("fuse", [True, False],
                         ids=["fusion-on", "fusion-off"])
def test_lone_pollers_hit_the_event_budget(pollers, fuse, traced):
    """A poll nobody answers must raise, not hang (was: fused, 1 poller)."""

    def poller(env):
        box = yield from env.open_receive(f"box{env.rank}", FCFS)
        yield from select_receive(env, (box,))

    eng, view = _engine(fuse, pollers, max_events=50_000,
                        recorder=_watcher(traced))
    _spawn(eng, view, [poller] * pollers)
    with pytest.raises(SimulationError, match="exceeded 50000 events"):
        eng.run()
    assert eng.stats.events == 50_001


@pytest.mark.parametrize("traced", [True, False])
def test_budget_inside_a_plain_fused_loop(traced):
    """Section after section with no queue crossing is budgeted too."""
    sec = FusedSection(((S_CHARGE, Work(instrs=1, label="spin")),) * 3)

    def spinner():
        while True:
            yield sec

    eng = Engine(n_locks=1, n_channels=0, max_events=1_000,
                 recorder=_watcher(traced))
    eng.spawn("p0", spinner())
    eng.spawn("p1", spinner())
    with pytest.raises(SimulationError, match="exceeded 1000 events"):
        eng.run()


@pytest.mark.parametrize("procs", [1, 2])
@pytest.mark.parametrize("traced", [True, False])
@pytest.mark.parametrize("fused", [True, False])
def test_budget_is_tested_at_a_multi_part_charge(fused, traced, procs):
    """A ``ChargeMany`` ticks ``len(works) - 1`` events on its own: the
    budget fires there, at the same count as a step or as an effect,
    watched or not, not one step later."""
    works = (Work(instrs=1, label="spin"),) * 4
    effect = FusedSection(((S_MANY, works),)) if fused else ChargeMany(works)

    def spinner():
        while True:
            yield effect

    eng = Engine(n_locks=1, n_channels=0, max_events=10,
                 recorder=_watcher(traced))
    for i in range(procs):
        eng.spawn(f"p{i}", spinner())
    with pytest.raises(SimulationError, match="exceeded 10 events"):
        eng.run()
    # Third four-part charge: 12 events, and nothing ran after it.
    assert (eng.stats.events, eng.stats.charges) == (12, 12)


# -- step and directive semantics --------------------------------------------


class _UnitTiming(ZeroTimingModel):
    def price(self, work, running):
        return work.instrs * 1e-6

    def acquire_cost(self):
        return 2e-6

    def release_cost(self):
        return 1e-6


_CHECK = ((S_CHARGE, Work(instrs=5, label="fixed")), (S_ACQ, 0),
          (S_CHARGE, Work(instrs=2, label="walk")), (S_REL, 0))


def _looping(rounds):
    """One section that jumps back to its own head ``rounds - 1`` times."""
    left = [rounds]

    def call():
        left[0] -= 1
        if left[0]:
            return (D_JUMP, None, _CHECK[2:] + head)
        return (D_JUMP, "done", _CHECK[2:])

    head = _CHECK[:2] + ((S_CALL, call),)

    def body():
        return (yield FusedSection(head))

    return body()


def _one_by_one(rounds):
    def body():
        for _ in range(rounds):
            yield FusedSection(_CHECK)
        return "done"

    return body()


@pytest.mark.parametrize(
    "mode", ["plain", "untraced", "controlled", "sliced"])
def test_s_next_is_a_section_boundary(mode):
    """A looping section is event-for-event the sections it replaces."""

    def run(make):
        rec = None if mode == "untraced" else Recorder()
        sched = (ControlledPolicy(RandomPolicy(seed=3))
                 if mode == "controlled" else None)
        eng = Engine(n_locks=1, n_channels=0, timing=_UnitTiming(),
                     scheduler=sched, recorder=rec)
        # Two loopers contending for lock 0, so parks land mid-loop.
        eng.spawn("p0", make(40))
        eng.spawn("p1", make(25))
        if mode == "sliced":
            for k in range(1, 30):
                eng.run(until=k * 17e-6)
        eng.run()
        return (eng.now, eng.stats.as_dict(), eng.results(),
                rec and list(rec.spans),
                sched and (sched.decisions, sched.widths))

    assert run(_looping) == run(_one_by_one)


def test_d_jump_replaces_the_remaining_steps():
    ran = []

    def call():
        return (D_JUMP, 7, ((S_CALL, lambda: ran.append("tail")),))

    def body():
        return (yield FusedSection((
            (S_CALL, call),
            (S_CALL, lambda: ran.append("skipped")),
        )))

    eng = Engine(n_locks=1, n_channels=0)
    eng.spawn("p0", body())
    eng.run()
    assert ran == ["tail"]
    assert eng.results() == {"p0": 7}


def test_unknown_opcode_still_refused():
    def body(op):
        yield FusedSection(((op, 0),))

    # 4: the retired wake step; 6: the retired section boundary; 7: past
    # the last one.
    for op in (4, 6, 7):
        eng = Engine(n_locks=1, n_channels=1)
        eng.spawn("p0", body(op))
        with pytest.raises(SimulationError, match="bad fused step opcode"):
            eng.run()


def test_drop_wake_passes_poll_sections_untouched():
    """No section can wake anybody: the injector forwards the very object."""
    eng, view = _engine(True, 1)
    seen = []

    def opener():
        box = yield from ops.open_receive(view, 0, "box", FCFS)
        gen = drop_wake(ops.poll_receive(
            view, 0, (box,), Work(instrs=400, label="app-compute")))
        section = next(gen)
        seen.append(section)
        gen.close()

    _spawn(eng, view, [lambda env: opener()])
    eng.run()
    (section,) = seen
    assert section is next(iter(view._fs_poll_cache.values()))[1]
