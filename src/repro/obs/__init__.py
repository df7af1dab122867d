"""Observability: runtime-agnostic metrics, traces and exporters.

The paper's whole analysis rests on instrumentation ("Detailed
measurements show that, for large messages, LNVC updates are of
negligible cost.  Instead, message copying costs dominate").  This
package is the reproduction's measurement layer, usable on *every*
runtime rather than only the simulator:

* :class:`Recorder` — the one observer of every runtime: per-lock
  acquisition / contention / wait / hold statistics with histograms, a
  per-Work-label time split, per-process effect counts and a bounded
  log of structured spans.  The simulated engine feeds it simulated
  time; threads, procs and posix runtimes feed it wall-clock time
  measured inside :func:`repro.runtime.threads.drive`;
* exporters (:mod:`repro.obs.export`) — the lock-profile table, the
  Chrome ``chrome://tracing`` Trace Event Format and the Prometheus
  text exposition, each one module function of the recorder;
* one store (:mod:`repro.obs.store`) — the counter, gauge, digest,
  log and sample cells every sink above keeps its measurements in, and the
  folds by which :meth:`Recorder.merge` joins two recordings.

Attach a recorder with the runtime's ``recorder=`` parameter::

    from repro import Recorder, SimRuntime, ThreadRuntime
    from repro.obs import format_lock_profile

    rec = Recorder()
    SimRuntime(recorder=rec).run(workers)       # simulated seconds
    rec2 = Recorder()
    ThreadRuntime(recorder=rec2).run(workers)   # wall-clock seconds
    print(format_lock_profile(rec))

Every name below is either imported by the package outside
``repro.obs`` or used in an executed block of ``docs/``
(tests/obs/test_surfaces.py); docs/observability.md tables each kept
surface with the question it alone answers and the gate that reads it.
"""

from .causal import (
    CausalTracer,
    MsgEvent,
    busiest_lnvc,
    format_causal_tail,
    format_sojourn,
    sojourn_stats,
)
from .export import (
    chrome_trace,
    format_lock_profile,
    read_decision_trace,
    parse_exposition,
    prometheus_exposition,
    write_chrome_trace,
    write_decision_trace,
)
from .flow import (
    FlowGraph,
    check_dot,
    flow_dot,
    flow_from_causal,
    flow_from_segment,
)
from .health import SERVE_TIER_ORDER, Finding, HealthEngine, serve_tier_of
from .recorder import LockStats, Recorder, Span, WorkStats, lock_name
from .store import Histogram, Store
from .timeline import Timeline

__all__ = [
    "Recorder",
    "Span",
    "LockStats",
    "WorkStats",
    "Histogram",
    "Store",
    "lock_name",
    "CausalTracer",
    "MsgEvent",
    "busiest_lnvc",
    "format_causal_tail",
    "format_sojourn",
    "sojourn_stats",
    "FlowGraph",
    "check_dot",
    "flow_dot",
    "flow_from_causal",
    "flow_from_segment",
    "Timeline",
    "Finding",
    "HealthEngine",
    "serve_tier_of",
    "SERVE_TIER_ORDER",
    "parse_exposition",
    "prometheus_exposition",
    "format_lock_profile",
    "chrome_trace",
    "write_chrome_trace",
    "write_decision_trace",
    "read_decision_trace",
]
