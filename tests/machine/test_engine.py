"""Unit tests for the discrete-event engine."""

import pytest

from repro.core.effects import Acquire, Charge, Release, WaitOn, Wake
from repro.core.work import Work
from repro.machine.engine import (
    DeadlockError,
    Engine,
    SimulationError,
    ZeroTimingModel,
)


class UnitTiming(ZeroTimingModel):
    """1 second per instruction; locks/wakes free.  Makes time countable."""

    def price(self, work, running):
        return float(work.instrs)


def make_engine(**kw):
    kw.setdefault("n_locks", 4)
    kw.setdefault("n_channels", 2)
    return Engine(**kw)


def test_single_process_runs_to_completion():
    eng = make_engine()

    def proc():
        yield Charge(Work(instrs=0))
        return "done"

    eng.spawn("p", proc())
    eng.run()
    assert eng.results() == {"p": "done"}


def test_charge_advances_clock():
    eng = make_engine(timing=UnitTiming())

    def proc():
        yield Charge(Work(instrs=5))
        yield Charge(Work(instrs=7))

    eng.spawn("p", proc())
    assert eng.run() == 12.0


def test_parallel_charges_overlap():
    eng = make_engine(timing=UnitTiming())

    def proc():
        yield Charge(Work(instrs=10))

    eng.spawn("a", proc())
    eng.spawn("b", proc())
    assert eng.run() == 10.0  # concurrent, not 20


def test_lock_serializes_critical_sections():
    eng = make_engine(timing=UnitTiming())
    order = []

    def proc(name):
        yield Acquire(0)
        order.append((name, eng.now))
        yield Charge(Work(instrs=10))
        yield Release(0)

    eng.spawn("a", proc("a"))
    eng.spawn("b", proc("b"))
    assert eng.run() >= 20.0
    # Second entrant starts only after first's 10-instr hold.
    assert order[1][1] >= order[0][1] + 10.0


def test_lock_waiters_fifo():
    eng = make_engine(timing=UnitTiming())
    order = []

    def holder():
        yield Acquire(0)
        yield Charge(Work(instrs=5))
        yield Release(0)

    def waiter(name):
        yield Charge(Work(instrs=1))  # ensure holder gets the lock first
        yield Acquire(0)
        order.append(name)
        yield Release(0)

    eng.spawn("h", holder())
    eng.spawn("w1", waiter("w1"))
    eng.spawn("w2", waiter("w2"))
    eng.run()
    assert order == ["w1", "w2"]


def test_wait_wake_roundtrip():
    eng = make_engine(timing=UnitTiming())
    log = []

    def sleeper():
        yield Acquire(1)
        yield WaitOn(0, 1)
        log.append(("woke", eng.now))
        yield Release(1)
        return "ok"

    def waker():
        yield Charge(Work(instrs=10))
        yield Wake(0)

    eng.spawn("s", sleeper())
    eng.spawn("w", waker())
    eng.run()
    assert eng.results()["s"] == "ok"
    assert log[0][1] >= 10.0


def test_wake_resumes_all_sleepers():
    eng = make_engine(timing=UnitTiming())
    woken = []

    def sleeper(name):
        yield Acquire(1)
        yield WaitOn(0, 1)
        woken.append(name)
        yield Release(1)

    def waker():
        yield Charge(Work(instrs=5))
        yield Wake(0)

    for n in ("s1", "s2", "s3"):
        eng.spawn(n, sleeper(n))
    eng.spawn("w", waker())
    eng.run()
    assert sorted(woken) == ["s1", "s2", "s3"]


def test_wake_with_no_sleepers_is_noop():
    eng = make_engine()

    def proc():
        yield Wake(0)

    eng.spawn("p", proc())
    eng.run()
    assert eng.stats.woken == 0


def test_deadlock_detected():
    eng = make_engine()

    def sleeper():
        yield Acquire(1)
        yield WaitOn(0, 1)

    eng.spawn("s", sleeper())
    with pytest.raises(DeadlockError, match="s"):
        eng.run()


def test_lock_order_deadlock_detected():
    eng = make_engine(timing=UnitTiming())

    def ab():
        yield Acquire(0)
        yield Charge(Work(instrs=5))
        yield Acquire(1)
        yield Release(1)
        yield Release(0)

    def ba():
        yield Acquire(1)
        yield Charge(Work(instrs=5))
        yield Acquire(0)
        yield Release(0)
        yield Release(1)

    eng.spawn("ab", ab())
    eng.spawn("ba", ba())
    with pytest.raises(DeadlockError):
        eng.run()


def test_self_deadlock_is_structural_error():
    eng = make_engine()

    def proc():
        yield Acquire(0)
        yield Acquire(0)

    eng.spawn("p", proc())
    with pytest.raises(SimulationError, match="re-acquired"):
        eng.run()


def test_release_unowned_lock_is_structural_error():
    eng = make_engine()

    def proc():
        yield Release(0)

    eng.spawn("p", proc())
    with pytest.raises(SimulationError, match="does not own"):
        eng.run()


def test_wait_without_lock_is_structural_error():
    eng = make_engine()

    def proc():
        yield WaitOn(0, 1)

    eng.spawn("p", proc())
    with pytest.raises(SimulationError, match="without holding"):
        eng.run()


def test_non_effect_yield_is_structural_error():
    eng = make_engine()

    def proc():
        yield 42

    eng.spawn("p", proc())
    with pytest.raises(SimulationError, match="non-effect"):
        eng.run()


def test_process_exception_propagates():
    eng = make_engine()

    def proc():
        yield Charge(Work())
        raise ValueError("boom")

    eng.spawn("p", proc())
    with pytest.raises(ValueError, match="boom"):
        eng.run()


def test_run_until_stops_early():
    eng = make_engine(timing=UnitTiming())

    def proc():
        for _ in range(100):
            yield Charge(Work(instrs=10))

    eng.spawn("p", proc())
    assert eng.run(until=55.0) == 55.0


def test_run_until_resumes_without_losing_events():
    eng = make_engine(timing=UnitTiming())

    def proc():
        for _ in range(10):
            yield Charge(Work(instrs=10))
        return "finished"

    eng.spawn("p", proc())
    eng.run(until=35.0)
    # Resume: the paused process must complete, not vanish.
    assert eng.run() == 100.0
    assert eng.results()["p"] == "finished"


def test_run_until_repeated_windows():
    eng = make_engine(timing=UnitTiming())

    def proc():
        for _ in range(6):
            yield Charge(Work(instrs=10))

    eng.spawn("p", proc())
    for deadline in (15.0, 30.0, 45.0):
        assert eng.run(until=deadline) == deadline
    assert eng.run() == 60.0


@pytest.mark.parametrize("nprocs", [1, 2])
def test_run_until_in_the_past_is_a_noop(nprocs):
    """A bound at or before the clock must not move it backwards.

    ``run(until=1.5)`` then ``run(until=0.5)`` used to return 0.5 and
    leave ``now == 0.5`` with the event at 1.0 already executed, so a
    later spawn scheduled into the past.
    """
    def program():
        eng = make_engine(timing=UnitTiming())
        stamps = []

        def proc(k):
            for _ in range(4):
                yield Charge(Work(instrs=1))
                stamps.append((k, eng.now))

        for k in range(nprocs):
            eng.spawn(f"p{k}", proc(k))
        return eng, stamps

    straight, want = program()
    final = straight.run()

    eng, stamps = program()
    assert eng.run(until=1.5) == 1.5
    events = eng.stats.events
    for bound in (0.5, 1.5, 0.0, -1.0):
        assert eng.run(until=bound) == 1.5
        assert (eng.now, eng.stats.events) == (1.5, events)

    def late():
        yield Charge(Work(instrs=0))
        return eng.now

    eng.spawn("late", late())
    assert eng.run() == final == 4.0
    assert stamps == want
    assert eng.results()["late"] == 1.5  # spawned at the clock, not before it


def test_determinism():
    def program(eng):
        def worker(k):
            yield Acquire(0)
            yield Charge(Work(instrs=k))
            yield Release(0)
            return eng.now

        for i in range(5):
            eng.spawn(f"p{i}", worker(i + 1))
        eng.run()
        return (eng.now, tuple(sorted(eng.results().items())))

    a = program(make_engine(timing=UnitTiming()))
    b = program(make_engine(timing=UnitTiming()))
    assert a == b


def test_lock_wait_time_accounted():
    eng = make_engine(timing=UnitTiming())

    def holder():
        yield Acquire(0)
        yield Charge(Work(instrs=20))
        yield Release(0)

    def waiter():
        yield Charge(Work(instrs=1))
        yield Acquire(0)
        yield Release(0)

    eng.spawn("h", holder())
    w = eng.spawn("w", waiter())
    eng.run()
    assert w.lock_wait_time == pytest.approx(19.0)


def test_event_budget_guard():
    eng = make_engine(max_events=10)

    def proc():
        while True:
            yield Charge(Work())

    eng.spawn("p", proc())
    with pytest.raises(SimulationError, match="exceeded"):
        eng.run()


def test_stats_counters():
    eng = make_engine(timing=UnitTiming())

    def proc():
        yield Acquire(0)
        yield Charge(Work(instrs=3))
        yield Release(0)

    eng.spawn("a", proc())
    eng.spawn("b", proc())
    eng.run()
    assert eng.stats.lock_acquires == 2
    assert eng.stats.lock_contended == 1
    assert eng.stats.charged_seconds == pytest.approx(6.0)
