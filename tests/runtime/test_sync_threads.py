"""The spin-then-park wake protocol (runtime/sync.py) on threads.

``ThreadRuntime`` and ``MPFSystem`` run on the same ``ProcSync`` as the
process runtime, built over the ``threading`` module.  The cases are
``test_proc_sync``'s own — the forced wake-vs-waiter orderings, the
lock spin / block cases, the conservation pipe and the lost-wakeup
stress — collected again here with ``host`` saying "threads": the waiter
(or the contending acquirer) is a thread of the test process and the
pipes run on ``ThreadRuntime``.  The interpreter switches threads every
50 µs instead of every 5 ms, so preemption lands inside lock sections.
"""

import sys

import pytest

from test_proc_sync import (  # noqa: F401 - collected again on threads
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


@pytest.fixture
def host():
    return "threads"


@pytest.fixture(autouse=True)
def preempt_often():
    interval = sys.getswitchinterval()
    sys.setswitchinterval(5e-5)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)
