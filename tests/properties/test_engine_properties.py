"""The C step interpreter against the Python reference loop.

``Engine.run`` runs ``engine.c`` where it was built; the Python loop in
``machine/engine.py`` is the reference.  Each example here is a small
program of two to five processes — charges with copy, block and page
work, multi-part charges, nested lock blocks, channel waits and wakes,
fused sections whose ``S_CALL`` steps jump and bail, bodies that spawn,
and the errors a program can make — run once on each loop under both
timing models, with and without a recorder, optionally under a seeded
random scheduler and in ``until=`` slices.  The two runs must agree on
everything a caller can see: the clock to the last bit, every
``EngineStats`` counter, each process's state, result, error and lock
wait, the recorder's snapshot, and the type and message of whatever the
run raised.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.check.scheduler import RandomPolicy
from repro.core.effects import (
    D_BAIL,
    D_JUMP,
    S_ACQ,
    S_CALL,
    S_CHARGE,
    S_MANY,
    S_REL,
    Acquire,
    Charge,
    ChargeMany,
    FusedSection,
    Release,
    WaitOn,
    Wake,
)
from repro.core.work import Work
from repro.machine import engine as engine_module
from repro.machine.balance import BALANCE_21000
from repro.machine.cpu import BalanceTiming
from repro.machine.engine import Engine, ZeroTimingModel
from repro.obs import Recorder

N_LOCKS, N_CHANS = 3, 2
#: Two processors, so that three runnable processes stretch a charge.
TWO_CPUS = replace(BALANCE_21000, n_cpus=2)

instrs = st.integers(0, 5_000)
flops = st.integers(0, 40)


@st.composite
def works(draw, compute_only=False):
    if compute_only or draw(st.booleans()):
        return Work(instrs=draw(instrs), flops=draw(flops),
                    label=draw(st.sampled_from(("", "a", "b"))))
    return Work(instrs=draw(instrs), copy_bytes=draw(st.integers(0, 4096)),
                blocks=draw(st.integers(0, 40)),
                page_bytes=draw(st.integers(0, 9000)),
                flops=draw(flops), label="copy")


lock_ids = st.integers(0, N_LOCKS - 1)
chans = st.integers(0, N_CHANS - 1)
section_steps = st.lists(st.one_of(
    st.tuples(st.just("charge"), works()),
    st.tuples(st.just("many"), st.lists(works(True), min_size=1,
                                         max_size=4)),
    st.tuples(st.just("acq"), lock_ids),
    st.tuples(st.just("rel"), lock_ids),
    st.tuples(st.just("call"), st.sampled_from(("none", "jump", "bail")),
              st.integers(0, 3)),
), min_size=1, max_size=6)
leaf_ops = st.one_of(
    st.tuples(st.just("charge"), works()),
    st.tuples(st.just("many"), st.lists(works(True), min_size=1,
                                         max_size=4)),
    st.tuples(st.just("wake"), chans),
    st.tuples(st.just("section"), section_steps),
    # what a program can get wrong
    st.tuples(st.just("bad-lock"), st.integers(N_LOCKS, N_LOCKS + 2)),
    st.tuples(st.just("release-unowned"), lock_ids),
    st.tuples(st.just("non-effect"), st.integers(0, 9)),
)


def _extend(children):
    return st.one_of(
        st.tuples(st.just("lock"), lock_ids, st.lists(children, max_size=3)),
        st.tuples(st.just("wait"), chans, lock_ids,
                  st.lists(children, max_size=2)),
        st.tuples(st.just("reacquire"), lock_ids),
        st.tuples(st.just("spawn"), st.lists(children, max_size=3)),
    )


ops = st.recursive(leaf_ops, _extend, max_leaves=8)
programs = st.lists(st.lists(ops, max_size=6), min_size=2, max_size=5)


def _section(steps, log):
    """A FusedSection over ``steps``; each call step jumps back to the
    section's head (at most its count times), jumps to a one-step tail
    or bails, and logs what it did."""
    built: list = []
    tail = ((S_CHARGE, Work(instrs=3, label="tail")),)
    for step in steps:
        kind = step[0]
        if kind == "charge":
            built.append((S_CHARGE, step[1]))
        elif kind == "many":
            built.append((S_MANY, tuple(step[1])))
        elif kind == "acq":
            built.append((S_ACQ, step[1]))
        elif kind == "rel":
            built.append((S_REL, step[1]))
        else:
            _, how, count = step
            left = [count]

            def call(how=how, left=left):
                log.append(how)
                if how == "none":
                    return None
                if how == "bail":
                    return (D_BAIL, ("bailed", len(log)))
                if left[0] > 0:
                    left[0] -= 1
                    return (D_JUMP, len(log), tuple(built))
                return (D_JUMP, ("done", len(log)), tail)

            built.append((S_CALL, call))
    return FusedSection(tuple(built))


def _body(engine, name, program, log):
    spawned = [0]

    def run(ops, held):
        for op in ops:
            kind = op[0]
            if kind == "charge":
                yield Charge(op[1])
            elif kind == "many":
                yield ChargeMany(tuple(op[1]))
            elif kind == "wake":
                yield Wake(op[1])
            elif kind == "section":
                log.append((yield _section(op[1], log)))
            elif kind == "bad-lock":
                yield Acquire(op[1])
            elif kind == "release-unowned":
                if op[1] not in held:
                    yield Release(op[1])
            elif kind == "non-effect":
                yield op[1]
            elif kind == "lock":
                if op[1] in held:
                    continue
                yield Acquire(op[1])
                yield from run(op[2], held | {op[1]})
                yield Release(op[1])
            elif kind == "wait":
                _, chan, lock, inner = op
                if lock in held:
                    continue
                yield Acquire(lock)
                yield WaitOn(chan, lock)
                yield from run(inner, held | {lock})
                yield Release(lock)
            elif kind == "reacquire":
                yield Acquire(op[1])
                yield Acquire(op[1])
            elif kind == "spawn":
                spawned[0] += 1
                child = f"{name}.{spawned[0]}"
                engine.spawn(child, _body(engine, child, op[1], log))
                log.append(("spawned", child, engine.now))

    def body():
        log.append(("start", name, engine.now))
        yield from run(program, frozenset())
        return (name, len(log), engine.now)

    return body()


def _engine(program, balance, rec, seed, max_events, log):
    eng = Engine(N_LOCKS, N_CHANS,
                 timing=BalanceTiming(TWO_CPUS) if balance
                 else ZeroTimingModel(),
                 max_events=max_events, recorder=rec,
                 scheduler=None if seed is None else RandomPolicy(seed))
    for i, ops in enumerate(program):
        eng.spawn(f"p{i}", _body(eng, f"p{i}", ops, log))
    return eng


def _charge_ends(program, max_events):
    """When the charges of the reference's unbounded, unscheduled run
    ended: bounds a step ends on exactly, where ``t2 <= until`` decides
    between continuing and parking."""
    rec = Recorder()
    eng = _engine(program, True, rec, None, max_events, [])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine_module, "C_RUN", None)
        try:
            eng.run()
        except Exception:  # noqa: BLE001 - the run so far is enough
            pass
    return sorted({span.time for span in rec.spans if span.kind == "charge"})


def _observe(program, balance, recorded, seed, untils, max_events, loop):
    """Run ``program`` on ``loop`` (``None``: the Python reference) and
    return everything a caller can see."""
    rec = Recorder() if recorded else None
    log: list = []
    eng = _engine(program, balance, rec, seed, max_events, log)
    nows, error = [], None
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine_module, "C_RUN", None)
        try:
            for until in (*untils, None):
                now = eng.run(until) if loop is None else loop(eng, until)
                nows.append(float.hex(now))
        except Exception as exc:  # noqa: BLE001 - compared, not handled
            error = (type(exc).__name__, str(exc))
    procs = [(p.name, p.state, repr(p.result), float.hex(p.lock_wait_time),
              None if p.error is None
              else (type(p.error).__name__, str(p.error)))
             for p in eng.processes]
    return {"nows": nows, "now": float.hex(eng.now), "error": error,
            "stats": eng.stats.as_dict(), "procs": procs, "log": log,
            "owners": [None if lk.owner is None else lk.owner.name
                       for lk in eng.locks],
            "waiters": [[p.name for p in lk.waiters] for lk in eng.locks],
            "sleepers": [[p.name for p in ch.sleepers]
                         for ch in eng.channels],
            "queue": [(float.hex(t), s, p.name) for t, s, p in eng._queue],
            "recorder": None if rec is None else _plain(rec.snapshot())}


def _plain(obj):
    """``obj`` as nested tuples of plain values, floats as hex: the
    recorder's stores compare by identity."""
    if isinstance(obj, float):
        return float.hex(obj)
    if isinstance(obj, dict):
        return tuple((_plain(k), _plain(v)) for k, v in obj.items())
    if isinstance(obj, (list, tuple, set, frozenset)):
        items = sorted(obj, key=repr) if isinstance(obj, (set, frozenset)) \
            else obj
        return tuple(_plain(v) for v in items)
    names = getattr(type(obj), "__slots__", None) or getattr(
        obj, "__dict__", None)
    if names is not None and not isinstance(obj, (str, int)):
        names = (names,) if isinstance(names, str) else names
        return (type(obj).__name__,
                tuple((n, _plain(getattr(obj, n, None))) for n in names))
    return obj


def _charges(*works):
    return [("charge", w) for w in works]


COPY = Work(instrs=10, copy_bytes=100, label="copy")


@settings(max_examples=400, deadline=None)
# Ties: two processes at time 0 under zero timing, each step parks.
@example(program=[_charges(Work(instrs=1)), _charges(Work(instrs=1))],
         seed=None, untils=[], on_end=None, max_events=200_000_000)
# A bound a lone process's step ends on exactly (its second charge).
@example(program=[_charges(Work(instrs=5), Work(instrs=7), Work(instrs=7)),
                  []],
         seed=None, untils=[], on_end=1, max_events=200_000_000)
# Copy phases that end at a take while another copy is priced.
@example(program=[_charges(COPY, COPY), _charges(COPY, COPY)],
         seed=None, untils=[], on_end=None, max_events=200_000_000)
# Parts whose back-to-back sum rounds apart from their total: 1 us, then
# 1 + 4 us.
@example(program=[[("charge", Work(instrs=1)),
                   ("many", [Work(instrs=1), Work(instrs=4)])], []],
         seed=None, untils=[], on_end=None, max_events=200_000_000)
@given(program=programs,
       seed=st.one_of(st.none(), st.integers(0, 2**16)),
       untils=st.lists(st.floats(0.0, 3e-3), max_size=2),
       on_end=st.one_of(st.none(), st.integers(0, 99)),
       max_events=st.sampled_from((200_000_000, 7, 40)))
def test_c_engine_matches_the_python_reference(c_engine, program, seed,
                                               untils, on_end, max_events):
    ends = _charge_ends(program, max_events) if on_end is not None else ()
    if ends:
        untils = [*untils, ends[on_end % len(ends)]]
    untils = sorted(untils)
    for balance in (False, True):
        for recorded in (False, True):
            args = (program, balance, recorded, seed, untils, max_events)
            assert _observe(*args, c_engine) == _observe(*args, None), (
                balance, recorded)


def test_the_c_engine_runs_where_the_c_kernels_do():
    """``Engine.run`` takes the C loop exactly when the C kernels are the
    ones in use and ``engine.c`` built; :attr:`Engine.loop` says which."""
    from repro.core import chains

    def body():
        yield Charge(Work(instrs=1))

    eng = Engine(1, 0)
    eng.spawn("p", body())
    eng.run()
    expect = ("c" if engine_module.C_RUN is not None
              and chains.ACTIVE.name == "c" else "python")
    assert eng.loop == expect
