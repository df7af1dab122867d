"""The C step interpreter against the Python reference loop.

``Engine.run`` runs ``engine.c`` where it was built; the Python loop in
``machine/engine.py`` is the reference.  Each example here is a small
program of two to five processes — charges with copy, block and page
work, multi-part charges, nested lock blocks, channel waits and wakes,
fused sections whose ``S_CALL`` steps jump and bail, bodies that spawn,
stores to the header words the cache and VM models read, and the errors
a program can make — run once on each loop under three timing models
(zero; ``BalanceTiming`` with callable demand sources, which the C loop
prices by calling ``price``; ``BalanceTiming`` reading a segment header,
which it prices itself), with and without a recorder, optionally under a
seeded random scheduler and in ``until=`` slices.  The two runs must
agree on everything a caller can see: the clock to the last bit, every
``EngineStats`` counter, each process's state, result, error and lock
wait, the bus, cache and VM models' statistics, the recorder's snapshot,
and the type and message of whatever the run raised.

The second test does the same for whole MPF programs on ``SimRuntime``
whose receivers wait in ``select_receive``: the C loop runs the poll
walk kernel in place of the walk's Python body while its memo holds,
and the two runs must agree on the clock, every ``MachineReport``
field, the results, the header and the segment's bytes.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.check.scheduler import RandomPolicy
from repro.core import chains
from repro.core.layout import HDR, MPFConfig
from repro.core.protocol import BROADCAST, FCFS
from repro.core.region import SharedRegion
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
from repro.obs import Recorder, Timeline
from repro.patterns import select_receive
from repro.runtime.sim import SimRuntime

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
    # live_blocks (x STRIDE: the cache's 8 KiB at 512) and live_bytes (the
    # VM's 24 KiB) as a segment would hold them
    st.tuples(st.just("demand"), st.integers(0, 2000), st.integers(0, 60000)),
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


#: The block stride the ``"segment"`` timing model's cache demand uses.
STRIDE = 16


def _body(engine, name, program, log, region):
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
            elif kind == "demand":
                region.set_u32(HDR.u32["live_blocks"], op[1])
                region.set_u32(HDR.u32["live_bytes"], op[2])
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
                engine.spawn(child, _body(engine, child, op[1], log, region))
                log.append(("spawned", child, engine.now))

    def body():
        log.append(("start", name, engine.now))
        yield from run(program, frozenset())
        return (name, len(log), engine.now)

    return body()


def _engine(program, balance, rec, seed, max_events, log):
    """``balance``: ``False`` zero timing, ``True`` BalanceTiming with its
    default (callable) demand sources, ``"segment"`` BalanceTiming whose
    demand is a segment header's words — the closed form."""
    region = SharedRegion(bytearray(HDR.size))
    timing = BalanceTiming(TWO_CPUS) if balance else ZeroTimingModel()
    if balance == "segment":
        timing.set_demand(region, STRIDE)
    eng = Engine(N_LOCKS, N_CHANS, timing=timing,
                 max_events=max_events, recorder=rec,
                 scheduler=None if seed is None else RandomPolicy(seed))
    for i, ops in enumerate(program):
        eng.spawn(f"p{i}", _body(eng, f"p{i}", ops, log, region))
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
            "models": _models(eng.timing),
            "recorder": None if rec is None else _plain(rec.snapshot())}


def _models(timing):
    """The bus, cache and VM models' state: what ``collect_report`` reads
    and what the next charge prices from (floats as hex, so an int where
    the model keeps a float differs)."""
    if not isinstance(timing, BalanceTiming):
        return None
    bus, cache, vm = timing.bus, timing.cache, timing.vm
    return _plain((bus.active, bus.peak, bus.total_copies, cache.stall_time,
                   cache.stalled_blocks, vm.faults, vm.fault_time, vm._carry))


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
# The closed form: block work while the cache demand (1000 x 16 B) is
# above its 8 KiB, beside another copier (bus contention > 0).
@example(program=[[("demand", 1000, 0),
                   ("charge", Work(instrs=5, copy_bytes=64, blocks=7,
                                   label="copy"))],
                  _charges(COPY, COPY)],
         seed=None, untils=[], on_end=None, max_events=200_000_000)
# The VM's carry across charges: 0.39 of a fault per 2-page touch, so the
# first leaves a carry and the second faults.
@example(program=[[("demand", 0, 40000),
                   *_charges(*[Work(instrs=1, page_bytes=700, label="copy")]
                             * 3)], []],
         seed=None, untils=[], on_end=None, max_events=200_000_000)
# Touches a whole number of pages long.
@example(program=[[("demand", 0, 60000),
                   *_charges(*[Work(instrs=1, page_bytes=1024, label="copy")]
                             * 2)], []],
         seed=None, untils=[], on_end=None, max_events=200_000_000)
# A wake that finds a sleeper.
@example(program=[[("wait", 0, 0, [])],
                  [("charge", Work(instrs=50)), ("wake", 0)]],
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
    for balance in (False, True, "segment"):
        for recorded in (False, True):
            args = (program, balance, recorded, seed, untils, max_events)
            assert _observe(*args, c_engine) == _observe(*args, None), (
                balance, recorded)


# -- poll walks on whole programs ----------------------------------------------

NAMES = ("a", "b", "c")


@st.composite
def poll_programs(draw):
    """Pollers in ``select_receive`` over two or three circuits (each
    FCFS or BROADCAST, one perhaps a ring), senders, and churners that
    open and close receive connections on the polled circuits — each
    open or close moves the circuit's ``conn_epoch`` under a poller's
    memo.  Small cache and resident budgets put the models' demand above
    them."""
    n = draw(st.integers(2, 3))
    return {
        "protos": draw(st.lists(st.booleans(), min_size=n, max_size=n)),
        "ring": draw(st.one_of(st.none(), st.integers(0, n - 1))),
        "pollers": draw(st.integers(1, 2)),
        "backoff": draw(st.integers(0, 3000)),
        "sends": draw(st.lists(st.tuples(st.integers(0, n - 1),
                                         st.integers(0, 30_000),
                                         st.integers(0, 200)), max_size=8)),
        "churn": draw(st.lists(st.tuples(st.integers(0, n - 1),
                                         st.integers(0, 30_000),
                                         st.booleans()), max_size=3)),
        "cache_bytes": draw(st.sampled_from((64, 8 << 10))),
        "resident_bytes": draw(st.sampled_from((256, 24 << 10))),
    }


def _poll_workers(prog):
    names = NAMES[:len(prog["protos"])]
    protos = [FCFS if fcfs else BROADCAST for fcfs in prog["protos"]]

    def poller(env):
        ids = []
        for name, proto in zip(names, protos):
            ids.append((yield from env.open_receive(name, proto)))
        got = []
        for _ in range(len(prog["sends"])):
            cid, payload = yield from select_receive(env, ids,
                                                     prog["backoff"])
            got.append((ids.index(cid), len(payload), env.now()))
        return got

    def sender(env):
        ids = []
        for name in names:
            ids.append((yield from env.open_send(name)))
        for k, (c, instrs, size) in enumerate(prog["sends"]):
            yield from env.compute(instrs=instrs)
            yield from env.message_send(ids[c], bytes([k]) * size)
        return env.now()

    def churner(env):
        for c, instrs, fcfs in prog["churn"]:
            yield from env.compute(instrs=instrs)
            cid = yield from env.open_receive(names[c],
                                              FCFS if fcfs else BROADCAST)
            yield from env.compute(instrs=instrs // 2)
            yield from env.close_receive(cid)
        return env.now()

    return [poller] * prog["pollers"] + [sender, churner]


def _poll_run(prog, recorded, loop, kernels):
    """``prog`` on ``SimRuntime`` with ``loop`` as the engine's C loop
    (``None``: the Python loop) and ``kernels`` as the message path's;
    everything a caller can see."""
    cfg = MPFConfig(max_lnvcs=8, max_processes=8, ring_slots=4,
                    transports=() if prog["ring"] is None
                    else ((NAMES[prog["ring"]], "ring"),))
    machine = replace(TWO_CPUS, cache_bytes=prog["cache_bytes"],
                      resident_bytes=prog["resident_bytes"])
    rec = Recorder() if recorded else None
    rt = SimRuntime(machine, until=0.4, recorder=rec)
    out, error = None, None
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine_module, "C_RUN", loop)
        patch.setattr(chains, "ACTIVE", kernels)
        try:
            res = rt.run(_poll_workers(prog), cfg)
            out = (float.hex(res.elapsed), repr(res.results), res.header,
                   _plain(res.report.as_dict()))
        except Exception as exc:  # noqa: BLE001 - compared, not handled
            error = (type(exc).__name__, str(exc))
    eng = rt.last_engine
    assert eng.loop == ("python" if loop is None else "c")
    return {"out": out, "error": error, "now": float.hex(eng.now),
            "stats": eng.stats.as_dict(), "models": _models(eng.timing),
            "segment": bytes(rt.last_view.region._mv),
            "recorder": None if rec is None else _plain(rec.snapshot())}


def _prog(protos, sends, churn=(), ring=None, pollers=1, backoff=400,
          cache_bytes=64, resident_bytes=256):
    return {"protos": list(protos), "ring": ring, "pollers": pollers,
            "backoff": backoff, "sends": list(sends), "churn": list(churn),
            "cache_bytes": cache_bytes, "resident_bytes": resident_bytes}


@settings(max_examples=120, deadline=None)
# A connect and a close mid-poll move conn_epoch under the memo; the walk
# length the next check charges grows and shrinks with them.
@example(prog=_prog([False, True], [(0, 30_000, 10), (1, 5_000, 20)],
                    churn=[(0, 4_000, False), (1, 2_000, True)]),
         recorded=False)
# A ring circuit in the set: the per-check loop, on the C loop.
@example(prog=_prog([True, False], [(0, 20_000, 8), (1, 9_000, 8)], ring=0),
         recorded=False)
# Walks that find traffic: bursts of two queued on each circuit while two
# pollers wait (the count memoized, then taken by the kernel).
@example(prog=_prog([True, False],
                    [(0, 20_000, 5), (0, 0, 5), (1, 20_000, 5), (1, 0, 5),
                     (0, 20_000, 5), (0, 0, 5)], pollers=2),
         recorded=True)
@given(prog=poll_programs(), recorded=st.booleans())
def test_c_poll_walks_match_the_python_reference(c_engine, c_kernels, prog,
                                                 recorded):
    assert (_poll_run(prog, recorded, c_engine, c_kernels)
            == _poll_run(prog, recorded, None, chains.PYTHON))


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


# -- free-list receive sections on whole programs ------------------------------


@st.composite
def recv_programs(draw):
    """One sender on one circuit; receivers (FCFS or BROADCAST, some
    with a ``max_len`` a message may overflow) that wait for its traffic
    or find it queued; churners that open and close receive connections
    on it, moving its ``conn_epoch`` under a receiver's memo; perhaps a
    chain the sender breaks after sending it.  Ten-byte blocks make most
    payloads chains of several blocks, and every retirement a reap."""
    sends = draw(st.lists(st.tuples(st.integers(0, 20_000),
                                    st.integers(0, 60)), max_size=8))
    return {
        "receivers": draw(st.lists(
            st.tuples(st.booleans(),
                      st.one_of(st.none(), st.integers(0, 40)),
                      st.integers(0, len(sends)), st.integers(0, 30_000)),
            min_size=1, max_size=4)),
        "sends": sends,
        "churn": draw(st.lists(st.tuples(st.integers(0, 30_000),
                                         st.booleans()), max_size=3)),
        "corrupt": draw(st.one_of(st.none(), st.integers(0, 7))),
        "cache_bytes": draw(st.sampled_from((64, 8 << 10))),
    }


def _recv_workers(prog):
    from repro.core.errors import BufferOverflowError
    from repro.core.structs import LNVC, MSG

    def sender(env):
        cid = yield from env.open_send("data")
        for k, (instrs, size) in enumerate(prog["sends"]):
            yield from env.compute(instrs=instrs)
            yield from env.message_send(cid, bytes([k]) * size)
            if prog["corrupt"] == k and size:
                # The chain just linked at the tail leaves the segment.
                view = env.view
                r = view.region
                msg = LNVC.get(r, view.layout.lnvc_off(0), "fifo_tail")
                r.set_u32(MSG.get(r, msg, "first_blk"), r.size + 100)
        return env.now()

    def receiver(fcfs, max_len, count, instrs):
        def body(env):
            cid = yield from env.open_receive("data",
                                              FCFS if fcfs else BROADCAST)
            yield from env.compute(instrs=instrs)
            got = []
            for _ in range(count):
                try:
                    data = yield from env.message_receive(cid, max_len)
                except BufferOverflowError:
                    got.append("overflow")
                    data = yield from env.message_receive(cid)
                got.append((data, env.now()))
            yield from env.close_receive(cid)
            return got
        return body

    def churner(env):
        for instrs, fcfs in prog["churn"]:
            yield from env.compute(instrs=instrs)
            cid = yield from env.open_receive("data",
                                              FCFS if fcfs else BROADCAST)
            yield from env.compute(instrs=instrs // 2)
            yield from env.close_receive(cid)
        return env.now()

    return ([sender] + [receiver(*r) for r in prog["receivers"]]
            + [churner])


def _recv_run(prog, recorded, loop, kernels):
    """``prog`` on ``SimRuntime`` as :func:`_poll_run` runs a poll program."""
    cfg = MPFConfig(max_lnvcs=4, max_processes=8, block_size=10,
                    max_messages=64, message_pool_bytes=1 << 14)
    machine = replace(TWO_CPUS, cache_bytes=prog["cache_bytes"],
                      resident_bytes=256)
    rec = Recorder() if recorded else None
    rt = SimRuntime(machine, until=0.4, recorder=rec)
    out, error = None, None
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine_module, "C_RUN", loop)
        patch.setattr(chains, "ACTIVE", kernels)
        try:
            res = rt.run(_recv_workers(prog), cfg)
            out = (float.hex(res.elapsed), repr(res.results), res.header,
                   _plain(res.report.as_dict()))
        except Exception as exc:  # noqa: BLE001 - compared, not handled
            error = (type(exc).__name__, str(exc))
    eng = rt.last_engine
    assert eng.loop == ("python" if loop is None else "c")
    return {"out": out, "error": error, "now": float.hex(eng.now),
            "stats": eng.stats.as_dict(), "models": _models(eng.timing),
            "segment": bytes(rt.last_view.region._mv),
            "recorder": None if rec is None else _plain(rec.snapshot())}


def _rprog(receivers, sends, churn=(), corrupt=None, cache_bytes=64):
    return {"receivers": list(receivers), "sends": list(sends),
            "churn": list(churn), "corrupt": corrupt,
            "cache_bytes": cache_bytes}


@settings(max_examples=100, deadline=None)
# Receivers that wait first, then wake to a message each: two BROADCAST
# receivers, the second taking each drain from the view's memo and
# reaping the message (chains of three blocks, one, three: its last
# block is the memo's, not the previous message's).
@example(prog=_rprog([(False, None, 3, 0), (False, None, 3, 0)],
                     [(20_000, 25), (20_000, 7), (20_000, 25)]),
         recorded=True)
# An FCFS race: three receivers woken by every send, one wins each.
@example(prog=_rprog([(True, None, 1, 0)] * 3,
                     [(10_000, 12), (0, 30), (3_000, 0)]),
         recorded=False)
# A connect and a close in mid-receive move conn_epoch under the
# sleeping receivers' memos; a BROADCAST churner owes reads it sheds.
@example(prog=_rprog([(False, None, 2, 0), (True, None, 1, 0)],
                     [(30_000, 15), (30_000, 15)],
                     churn=[(4_000, False), (2_000, True)]),
         recorded=False)
# max_len overflow: the kernel refuses the claim, the reference raises,
# and the message is taken by the next, unbounded receive.
@example(prog=_rprog([(False, 10, 2, 20_000), (True, 4, 1, 20_000)],
                     [(0, 30), (0, 3), (0, 50)]),
         recorded=True)
# Queued traffic reaped several headers at a time under the nested
# allocator lock: the receivers start late, the BROADCAST one last.
@example(prog=_rprog([(True, None, 3, 40_000), (False, None, 4, 90_000)],
                     [(0, 20), (0, 11), (0, 0), (0, 40)]),
         recorded=False)
# A chain broken after its send: the drain refuses it and the reference
# raises the segment's error at the receiver.
@example(prog=_rprog([(False, None, 2, 0), (False, None, 2, 0)],
                     [(10_000, 20), (10_000, 20)], corrupt=1),
         recorded=False)
# FCFS messages of one shape: after the first, the C stage drains each
# chain itself, every byte of it.
@example(prog=_rprog([(True, None, 4, 0)],
                     [(10_000, 25), (10_000, 25), (10_000, 25),
                      (10_000, 25)]),
         recorded=False)
@given(prog=recv_programs(), recorded=st.booleans())
def test_c_receive_sections_match_the_python_reference(c_engine, c_kernels,
                                                       prog, recorded):
    assert (_recv_run(prog, recorded, c_engine, c_kernels)
            == _recv_run(prog, recorded, None, chains.PYTHON))


# -- free-list send sections on whole programs ---------------------------------


@st.composite
def send_programs(draw):
    """Senders on one circuit, each a list of ``(instrs, size, fused)``
    sends (the compute a prelude of the send, or a charge of its own);
    receivers (FCFS or BROADCAST) that take some messages after a
    compute of their own, a BROADCAST one caught up whenever a send
    links after it read everything;
    perhaps a stranger that sends holding only a receive connection, and
    a FIFO tail the first sender points outside the segment after its
    ``corrupt``-th send (the link kernel refuses the record, and the
    reference raises).  Sizes run from nothing to 2,048 B (205 ten-byte
    blocks), over a pool of 8 headers and 400 blocks that runs dry of
    either."""
    sends = st.lists(st.tuples(st.integers(0, 20_000),
                               st.sampled_from((0, 1, 10, 25, 300, 2048)),
                               st.booleans()), max_size=6)
    return {
        "senders": draw(st.lists(sends, min_size=1, max_size=2)),
        "receivers": draw(st.lists(
            st.tuples(st.booleans(), st.integers(0, 40_000),
                      st.integers(0, 4)), max_size=3)),
        "stranger": draw(st.one_of(st.none(), st.integers(0, 30_000))),
        "corrupt": draw(st.one_of(st.none(), st.integers(0, 5))),
    }


def _send_workers(prog):
    from repro.core.errors import MPFError
    from repro.core.structs import LNVC

    def sender(sends, corrupt):
        def body(env):
            cid = yield from env.open_send("data")
            got = []
            for k, (instrs, size, fused) in enumerate(sends):
                prelude = None
                if fused:
                    prelude = Work(instrs=instrs + 1, label="app-compute")
                else:
                    yield from env.compute(instrs=instrs)
                try:
                    got.append((yield from env.message_send(
                        cid, bytes([k]) * size, prelude)))
                except MPFError as exc:
                    got.append((type(exc).__name__, str(exc)))
                if k == corrupt:
                    r = env.view.region
                    LNVC.set(r, env.view.layout.lnvc_off(0), "fifo_tail",
                             r.size + 100)
            return got
        return body

    def receiver(fcfs, instrs, count):
        def body(env):
            cid = yield from env.open_receive("data",
                                              FCFS if fcfs else BROADCAST)
            yield from env.compute(instrs=instrs)
            got = []
            for _ in range(count):
                got.append((yield from env.message_receive(cid)))
            yield from env.close_receive(cid)
            return got
        return body

    def stranger(env):
        yield from env.compute(instrs=prog["stranger"])
        cid = yield from env.open_receive("data", BROADCAST)
        try:
            yield from env.message_send(cid, bytes(30))
        except MPFError as exc:
            return (type(exc).__name__, str(exc), HDR.get(
                env.view.region, "live_blocks"))
        finally:
            yield from env.close_receive(cid)

    return ([sender(s, prog["corrupt"] if not i else None)
             for i, s in enumerate(prog["senders"])]
            + [receiver(*r) for r in prog["receivers"]]
            + ([stranger] if prog["stranger"] is not None else []))


def _send_run(prog, recorded, loop, kernels):
    """``prog`` on ``SimRuntime`` as :func:`_recv_run` runs its program."""
    cfg = MPFConfig(max_lnvcs=2, max_processes=8, block_size=10,
                    max_messages=8, message_pool_bytes=400 * 14)
    # a timeline: the probe's report of a send carries its queue depth
    rec = Recorder(timeline=Timeline()) if recorded else None
    rt = SimRuntime(TWO_CPUS, until=0.4, recorder=rec)
    out, error = None, None
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine_module, "C_RUN", loop)
        patch.setattr(chains, "ACTIVE", kernels)
        try:
            res = rt.run(_send_workers(prog), cfg)
            out = (float.hex(res.elapsed), repr(res.results), res.header,
                   _plain(res.report.as_dict()))
        except Exception as exc:  # noqa: BLE001 - compared, not handled
            error = (type(exc).__name__, str(exc))
    eng = rt.last_engine
    assert eng.loop == ("python" if loop is None else "c")
    return {"out": out, "error": error, "now": float.hex(eng.now),
            "stats": eng.stats.as_dict(), "models": _models(eng.timing),
            "segment": bytes(rt.last_view.region._mv),
            "recorder": None if rec is None else _plain(rec.snapshot())}


def _sprog(senders, receivers=(), stranger=None, corrupt=None):
    return {"senders": list(senders), "receivers": list(receivers),
            "stranger": stranger, "corrupt": corrupt}


@settings(max_examples=60, deadline=None)
# Sends of one shape, the alloc and link stages in C after the first,
# fused with a prelude or not; a 0-byte payload and 2048 B ones between,
# to a BROADCAST receiver caught up when each links.
@example(prog=_sprog([[(1_000, 25, False), (1_000, 25, True), (0, 0, False),
                       (2_000, 2048, True), (1_000, 25, False)]],
                     [(False, 0, 5)]), recorded=True)
# Two senders run the header pool dry, then the blocks: each refused
# send leaves the pool as it found it.
@example(prog=_sprog([[(0, 1, False)] * 6, [(0, 2048, False), (0, 2048, True)]
                     + [(0, 1, False)] * 3], [(True, 200_000, 4)]),
         recorded=False)
# A stranger's send is refused at the link, and undone.
@example(prog=_sprog([[(5_000, 10, False), (5_000, 10, True)]],
                     [(True, 0, 2)], stranger=7_000), recorded=True)
# A FIFO tail outside the segment: the link kernel refuses the record.
@example(prog=_sprog([[(1_000, 10, False)] * 3], [(False, 50_000, 1)],
                     corrupt=1), recorded=False)
@given(prog=send_programs(), recorded=st.booleans())
def test_c_send_sections_match_the_python_reference(c_engine, c_kernels,
                                                    prog, recorded):
    assert (_send_run(prog, recorded, c_engine, c_kernels)
            == _send_run(prog, recorded, None, chains.PYTHON))
