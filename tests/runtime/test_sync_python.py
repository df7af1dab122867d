"""The sync and drive cases again, on the Python reference.

``test_proc_sync`` / ``test_sync_threads`` (the forced wake orderings,
the lock spin / block cases, the counter identities and the lost-wakeup
stress), ``test_drive_interpreter`` and the lock-order deadlock dump of
``test_real_runtimes`` run on whichever sync
``ProcSync`` builds — ``sync.c``'s, driven by its compiled loop, where
it was built.  Here :data:`repro.runtime.sync.C_SYNC` is ``None``, so
every ``ProcSync`` of a case runs the Python methods over ``ctx``'s
locks and semaphores and ``drive`` its Python loop: the same cases hold
the reference, on forked processes and on threads (``host``).
"""

import sys

import pytest

from repro.runtime import sync as sync_mod
from test_drive_interpreter import (  # noqa: F401 - collected again
    shared,
    sync,
    test_acquire_release_real_locks,
    test_charge_is_free,
    test_dispatch_is_on_the_exact_effect_class,
    test_exception_propagates_from_generator,
    test_non_effect_rejected,
    test_release_of_a_lock_it_does_not_hold_names_the_process,
    test_returns_value,
    test_waiton_chan_lock_mismatch_rejected,
    test_waiton_wake_handoff_between_threads,
    test_wake_on_idle_channel_is_safe,
)
from test_proc_sync import (  # noqa: F401 - collected again
    harness,
    pytestmark,
    test_contended_lock_past_the_budget_sleeps_and_says_so,
    test_contended_lock_released_inside_the_budget_is_taken_by_a_spin,
    test_counters_account_for_every_wake_and_every_park,
    test_no_lost_wakeup_under_stress,
    test_wake_before_waiter_registers,
    test_wake_while_parked,
    test_wake_while_spinning,
    test_wake_with_nobody_registered,
)
from test_real_runtimes import (  # noqa: F401 - collected again
    test_a_lock_order_deadlock_names_what_each_worker_waits_for_and_holds,
)


@pytest.fixture(params=["procs", "threads"])
def host(request):
    if request.param == "threads":
        interval = sys.getswitchinterval()
        sys.setswitchinterval(5e-5)  # as test_sync_threads
        yield request.param
        sys.setswitchinterval(interval)
    else:
        yield request.param


@pytest.fixture(autouse=True)
def python_sync(monkeypatch):
    """Every ``ProcSync`` built in the case runs the Python methods."""
    monkeypatch.setattr(sync_mod, "C_SYNC", None)


def test_the_python_sync_is_the_one_in_use(shared, sync):
    assert shared.impl == "python"
    assert type(sync) is sync_mod.ProcSync
