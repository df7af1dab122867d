"""Tests for the real-runtime effect interpreter (drive) in isolation."""

import threading
import time

import pytest

from repro.core.effects import Acquire, Charge, Release, WaitOn, Wake
from repro.core.layout import MPFConfig
from repro.core.protocol import FIRST_LNVC_LOCK
from repro.core.work import Work
from repro.runtime.sync import ProcSync
from repro.runtime.threads import drive


@pytest.fixture
def sync():
    """Rank 0's handle on the threads host; ``sync.bind(1)`` is a peer's."""
    shared = ProcSync(MPFConfig(max_lnvcs=4, max_processes=2), threading, 2)
    yield shared.bind(0)
    shared.close()


def gen_of(*effects, result=None):
    def g():
        for e in effects:
            yield e
        return result

    return g()


def test_returns_value(sync):
    assert drive(gen_of(result=41), sync) == 41


def test_charge_is_free(sync):
    assert drive(gen_of(Charge(Work(instrs=10**9)), result="x"), sync) == "x"


def test_acquire_release_real_locks(sync):
    drive(gen_of(Acquire(0), Release(0)), sync)
    assert sync.locks[0].acquire(blocking=False)  # actually released
    sync.locks[0].release()


def test_wake_on_idle_channel_is_safe(sync):
    drive(gen_of(Wake(1)), sync)


def test_waiton_chan_lock_mismatch_rejected(sync):
    gen = gen_of(Acquire(FIRST_LNVC_LOCK + 0), WaitOn(1, FIRST_LNVC_LOCK + 0))
    with pytest.raises(RuntimeError, match="expected circuit lock"):
        drive(gen, sync)


def test_non_effect_rejected(sync):
    with pytest.raises(RuntimeError, match="non-effect"):
        drive(gen_of("hello"), sync)


@pytest.mark.parametrize("recorder", [None, "recorder"])
def test_dispatch_is_on_the_exact_effect_class(sync, recorder):
    """Effects are final classes and ``drive`` (like ``Engine.run``)
    dispatches on the exact class, with and without a recorder: every
    kind is interpreted, and a look-alike is a non-effect."""
    from repro.core.effects import ChargeMany
    from repro.obs import Recorder

    rec = Recorder() if recorder else None
    lock = FIRST_LNVC_LOCK + 1
    w = Work(instrs=5, label="x")
    assert drive(gen_of(Charge(w), ChargeMany((w, w)), Acquire(lock),
                        Release(lock), Wake(1), result=7), sync,
                 recorder=rec) == 7
    assert sync.locks[lock].acquire(blocking=False)
    sync.locks[lock].release()

    class AlmostCharge(Charge):
        pass

    with pytest.raises(RuntimeError, match="non-effect"):
        drive(gen_of(AlmostCharge(w)), sync, recorder=rec)


def test_waiton_wake_handoff_between_threads(sync):
    """WaitOn really sleeps on the circuit's channel and Wake really
    resumes it, with the lock properly re-held on resume and the held
    list kept for the deadlock dump."""
    slot = 2
    lock_id = FIRST_LNVC_LOCK + slot
    stages = []
    sleeper_sync = sync.bind(1)

    def sleeper():
        def g():
            yield Acquire(lock_id)
            stages.append("sleeping")
            yield WaitOn(slot, lock_id)
            # Lock must be held again here.
            assert not sync.locks[lock_id].acquire(blocking=False)
            assert sleeper_sync.held == [lock_id]
            stages.append("woke")
            yield Release(lock_id)

        drive(g(), sleeper_sync)

    t = threading.Thread(target=sleeper)
    t.start()
    # A Wake before the sleeper's wait byte is set is skipped (MPF's
    # WaitOn loop would re-read its predicate; this one has none).
    while sync._mem[slot * 2 + 1] == 0:
        time.sleep(0.001)
    drive(gen_of(Wake(slot)), sync)
    t.join(10)
    assert not t.is_alive()
    assert stages == ["sleeping", "woke"]
    assert sleeper_sync.held == []


def test_exception_propagates_from_generator(sync):
    def g():
        yield Charge(Work())
        raise KeyError("inner")

    with pytest.raises(KeyError, match="inner"):
        drive(g(), sync)
