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
* exporters (:mod:`repro.obs.export`) — text tables, JSON lines, the
  Chrome ``chrome://tracing`` Trace Event Format and the Prometheus
  text exposition;
* one store (:mod:`repro.obs.store`) — the counter, gauge, digest,
  log and sample cells every sink above keeps its measurements in, and the
  folds by which :meth:`Recorder.merge` joins two recordings.

Attach a recorder with the runtime's ``recorder=`` parameter::

    from repro import Recorder, SimRuntime, ThreadRuntime

    rec = Recorder()
    SimRuntime(recorder=rec).run(workers)       # simulated seconds
    rec2 = Recorder()
    ThreadRuntime(recorder=rec2).run(workers)   # wall-clock seconds
    print(rec.format_lock_profile())

See docs/observability.md for the full guide.
"""

from .causal import (
    CausalTracer,
    MsgEvent,
    busiest_lnvc,
    causal_async_events,
    format_causal_tail,
    format_sojourn,
    pair_deliveries,
    peak_depth,
    queue_depth_timeline,
    sojourn_stats,
)
from .export import (
    chrome_trace,
    format_lock_profile,
    format_summary,
    read_decision_trace,
    to_jsonl,
    parse_exposition,
    prometheus_exposition,
    write_chrome_trace,
    write_decision_trace,
    write_jsonl,
)
from .flow import (
    FlowGraph,
    check_dot,
    flow_dot,
    flow_from_causal,
    flow_from_segment,
    flow_json,
)
from .health import SERVE_TIER_ORDER, Finding, HealthEngine, serve_tier_of
from .live import LiveTelemetryServer, fetch_metrics, render_top, top_main
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
    "causal_async_events",
    "format_causal_tail",
    "format_sojourn",
    "pair_deliveries",
    "peak_depth",
    "queue_depth_timeline",
    "sojourn_stats",
    "FlowGraph",
    "check_dot",
    "flow_dot",
    "flow_from_causal",
    "flow_from_segment",
    "flow_json",
    "Timeline",
    "Finding",
    "HealthEngine",
    "serve_tier_of",
    "SERVE_TIER_ORDER",
    "LiveTelemetryServer",
    "fetch_metrics",
    "render_top",
    "top_main",
    "parse_exposition",
    "prometheus_exposition",
    "format_lock_profile",
    "format_summary",
    "to_jsonl",
    "write_jsonl",
    "chrome_trace",
    "write_chrome_trace",
    "write_decision_trace",
    "read_decision_trace",
]
