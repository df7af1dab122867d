"""A jitter-free observer cost.

How heavy an attached observer is, as a count that repeats exactly: the
Python ``call`` events of code under ``src/repro/obs/`` during one small
simulated broadcast (``sys.setprofile``; the simulator is deterministic,
so is the count — C calls, generated ``NamedTuple`` / dataclass
constructors and everything outside ``repro.obs`` are not in it).  "Did
an observer get heavier" is answered here, not by a host whose walls
drift 10% (ROADMAP items 3(a) and 5).

``PINNED`` was first counted at e7455da — the parent of the commit that
put one store behind the observer seam — with this file's ``obs_calls``
(9,967 / 10,668 / 13,266 / 13,678 at 3b11bc4), and lowered when the
hooks stopped calling ``Recorder._count`` per effect and formatting a
lock's name per acquire and release.  Lower it when a change makes an
observer lighter; a change that needs to raise it says why in its PR.

Raised once: ``"all"`` 10,487 → 11,191 when every tracer gained the
exact e2e sketch, because a tracer riding with a timeline now feeds the
timeline's per-circuit e2e digests — 116 ``tap_e2e`` calls on this run,
six calls each (``tap_e2e``, ``_circuit_keys``, ``observe``, ``window``,
``log2_us_bucket``, ``add_bucket``).  The tracer itself did not get
heavier: ``"causal"`` stayed at 7,477.
"""

import collections
import os
import sys

import pytest

import repro.obs
from repro.bench.workloads import broadcast_throughput
from repro.obs import Recorder, lock_name

OBS_DIR = os.path.dirname(repro.obs.__file__) + os.sep

CONFIGS = {
    "plain": {},
    "causal": {"causal": True},
    "timeline": {"timeline": True},
    "all": {"causal": True, "timeline": True},
}

#: Calls under src/repro/obs/ per recorder configuration, each run
#: starting with an empty lock-name table (five locks: five calls).
PINNED = {"plain": 6776, "causal": 7477, "timeline": 10075, "all": 11191}


def obs_calls(rec: Recorder) -> collections.Counter:
    """``{function name: calls}`` under ``src/repro/obs/`` for one run of
    ``broadcast_throughput(4, 64, messages=24)`` recorded by ``rec``."""
    calls: collections.Counter = collections.Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(OBS_DIR):
            calls[frame.f_code.co_name] += 1

    lock_name.cache_clear()
    before = sys.getprofile()
    sys.setprofile(profile)
    try:
        broadcast_throughput(4, 64, messages=24, runtime="sim", recorder=rec)
    finally:
        sys.setprofile(before)
    return calls


@pytest.mark.parametrize("config", CONFIGS)
def test_no_observer_got_heavier(config):
    calls = obs_calls(Recorder(**CONFIGS[config]))
    assert 0 < sum(calls.values()) <= PINNED[config], calls.most_common()
    assert obs_calls(Recorder(**CONFIGS[config])) == calls  # it repeats


@pytest.mark.parametrize("config", CONFIGS)
def test_a_duration_is_bucketed_once(config):
    """Lock waits and holds go to the lock's histogram and, with a
    timeline, to a window's digest; channel sleeps and e2e latencies to
    a digest only.  Whoever records the duration buckets it, and hands
    the bucket on."""
    calls = obs_calls(Recorder(**CONFIGS[config]))
    durations = calls["on_acquire"] + calls["on_release"]
    if "timeline" in CONFIGS[config]:
        durations += calls["on_chan_wait"] + calls["tap_e2e"]
    assert calls["log2_us_bucket"] == durations > 0
    assert calls["add_bucket"] >= durations
