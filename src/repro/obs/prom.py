"""Prometheus text exposition of Recorder + causal-tracer metrics.

:func:`prometheus_exposition` renders a :class:`~repro.obs.Recorder`
(and its attached :class:`~repro.obs.causal.CausalTracer`, when causal
tracing was on) as the Prometheus text format — ``# HELP`` / ``# TYPE``
comment pairs followed by ``name{labels} value`` samples — so a figure
sweep or a long-running posix segment can be scraped or diffed with
standard tooling.  Output is deterministic: same recorder, same bytes.

:func:`parse_exposition` is the matching validator (a strict reader of
the subset we emit); the test suite and the ``make trace-smoke`` CI gate
use it to assert the exposition stays parseable.
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .recorder import Recorder

__all__ = ["prometheus_exposition", "parse_exposition"]

_QUANTILES = (0.5, 0.95, 0.99)


def _fmt(value: float) -> str:
    if isinstance(value, int) or float(value).is_integer():
        return str(int(value))
    return f"{value:.9g}"


class _Writer:
    def __init__(self) -> None:
        self.lines: list[str] = []

    def metric(self, name: str, mtype: str, help_: str,
               samples: list[tuple[dict, float]]) -> None:
        if not samples:
            return
        self.lines.append(f"# HELP {name} {help_}")
        self.lines.append(f"# TYPE {name} {mtype}")
        for labels, value in samples:
            if labels:
                body = ",".join(
                    f'{k}="{v}"' for k, v in sorted(labels.items())
                )
                self.lines.append(f"{name}{{{body}}} {_fmt(value)}")
            else:
                self.lines.append(f"{name} {_fmt(value)}")

    def text(self) -> str:
        return "\n".join(self.lines) + ("\n" if self.lines else "")


def prometheus_exposition(rec: "Recorder") -> str:
    """Render ``rec`` (and ``rec.causal`` if present) as Prometheus text."""
    from .recorder import lock_name

    w = _Writer()
    w.metric("mpf_spans_total", "counter",
             "Structured spans observed (including dropped).",
             [({}, rec.total)])
    w.metric("mpf_spans_dropped", "counter",
             "Spans not stored because the recorder limit was reached.",
             [({}, rec.dropped_spans)])
    locks = rec.lock_table()
    w.metric("mpf_lock_acquires_total", "counter",
             "Explicit lock acquisitions granted.",
             [({"lock": lock_name(lid)}, ls.acquires)
              for lid, ls in locks.items()])
    w.metric("mpf_lock_contended_total", "counter",
             "Acquisitions that had to wait.",
             [({"lock": lock_name(lid)}, ls.contended)
              for lid, ls in locks.items()])
    w.metric("mpf_lock_wait_seconds_total", "counter",
             "Total seconds spent waiting for each lock.",
             [({"lock": lock_name(lid)}, ls.wait_seconds)
              for lid, ls in locks.items()])
    w.metric("mpf_lock_hold_seconds_total", "counter",
             "Total seconds each lock was held.",
             [({"lock": lock_name(lid)}, ls.hold_seconds)
              for lid, ls in locks.items()])
    w.metric("mpf_work_charges_total", "counter",
             "Charge effects per work label.",
             [({"label": label}, ws.count)
              for label, ws in sorted(rec.work.items())])
    w.metric("mpf_work_instrs_total", "counter",
             "Instruction budget charged per work label.",
             [({"label": label}, ws.instrs)
              for label, ws in sorted(rec.work.items())])
    w.metric("mpf_work_seconds_total", "counter",
             "Priced simulated seconds per work label (0 on real runtimes).",
             [({"label": label}, ws.seconds)
              for label, ws in sorted(rec.work.items())])
    w.metric("mpf_chan_waits_total", "counter",
             "WaitOn sleeps per circuit wait channel.",
             [({"chan": str(chan)}, n)
              for chan, n in sorted(rec.chan_waits.items())])

    machine = getattr(rec, "machine", None)
    if machine:
        for key, help_ in (
            ("events", "Engine events retired (simulated runs)."),
            ("heap_pushes", "Entries parked in the engine's event queue."),
            ("heap_pops", "Entries taken from the engine's event queue "
                          "(the other events continued inline)."),
        ):
            if key in machine:
                w.metric(f"mpf_engine_{key}_total", "counter", help_,
                         [({}, machine[key])])

    timeline = getattr(rec, "timeline", None)
    if timeline is not None:
        from .timeline import digest_quantile

        totals = timeline.totals()

        def _tl(key: str) -> dict:
            series, metric = key.split("|", 1)
            return {"series": timeline.series_label(series),
                    "metric": metric}

        w.metric("mpf_timeline_windows", "gauge",
                 "Timeline windows recorded so far.",
                 [({}, len(timeline.windows))])
        w.metric("mpf_timeline_window_seconds", "gauge",
                 "Timeline window width (run timebase seconds).",
                 [({}, timeline.width)])
        w.metric("mpf_timeline_count_total", "counter",
                 "Whole-run timeline counter totals per series.",
                 [(_tl(k), n)
                  for k, n in sorted(totals["counters"].items())])
        w.metric("mpf_timeline_gauge_avg", "gauge",
                 "Sample-weighted mean of each timeline gauge.",
                 [(_tl(k), cell[1] / cell[0])
                  for k, cell in sorted(totals["gauges"].items())
                  if cell[0]])
        w.metric("mpf_timeline_gauge_max", "gauge",
                 "Peak sampled value of each timeline gauge.",
                 [(_tl(k), cell[3])
                  for k, cell in sorted(totals["gauges"].items())])
        w.metric("mpf_timeline_quantile_seconds", "summary",
                 "Whole-run latency quantiles from timeline digests.",
                 [({**_tl(k), "quantile": _fmt(q)}, digest_quantile(dig, q))
                  for k, dig in sorted(totals["digests"].items())
                  for q in _QUANTILES])

    tracer = rec.causal
    if tracer is not None:
        from .causal import peak_depth, sojourn_stats

        sent: dict[tuple[int, int], list[int]] = {}
        received: dict[tuple[int, int], list[int]] = {}
        for e in tracer.events:
            table = (sent if e.kind == "send"
                     else received if e.kind == "recv" else None)
            if table is not None:
                wgt = table.setdefault(e.lnvc, [0, 0])
                wgt[0] += 1
                wgt[1] += e.length
        lab = lambda key: {"lnvc": f"lnvc{key[0]}.g{key[1]}"}  # noqa: E731
        w.metric("mpf_messages_sent_total", "counter",
                 "Messages enqueued per circuit (causal trace).",
                 [(lab(k), v[0]) for k, v in sorted(sent.items())])
        w.metric("mpf_message_bytes_sent_total", "counter",
                 "Payload bytes enqueued per circuit (causal trace).",
                 [(lab(k), v[1]) for k, v in sorted(sent.items())])
        w.metric("mpf_messages_received_total", "counter",
                 "Receives completed per circuit (causal trace).",
                 [(lab(k), v[0]) for k, v in sorted(received.items())])
        w.metric("mpf_message_bytes_received_total", "counter",
                 "Payload bytes delivered per circuit (causal trace).",
                 [(lab(k), v[1]) for k, v in sorted(received.items())])
        w.metric("mpf_queue_depth_peak", "gauge",
                 "Peak message-queue depth per circuit (causal trace).",
                 [(lab(k), peak_depth(tracer, *k))
                  for k in tracer.lnvc_keys()])
        sojourn = [
            ({**lab(key), "stage": stage, "quantile": _fmt(q)},
             stats.quantile(q))
            for key, per in sorted(sojourn_stats(tracer).items())
            for stage, stats in sorted(per.items())
            for q in _QUANTILES
        ]
        w.metric("mpf_message_sojourn_seconds", "summary",
                 "Per-stage message latency quantiles (causal trace).",
                 sojourn)
        w.metric("mpf_pool_allocs_total", "counter",
                 "Successful free-list pops per pool head offset.",
                 [({"pool": str(off)}, n)
                  for off, n in sorted(tracer.pool_allocs.items())])
        w.metric("mpf_pool_alloc_failures_total", "counter",
                 "Free-list pops that found the pool exhausted.",
                 [({"pool": str(off)}, n)
                  for off, n in sorted(tracer.pool_failures.items())])
        w.metric("mpf_causal_events_total", "counter",
                 "Causal lifecycle events observed (including dropped).",
                 [({}, tracer.total)])
        w.metric("mpf_causal_events_dropped", "counter",
                 "Causal events not stored (tracer limit reached).",
                 [({}, tracer.dropped)])
    return w.text()


_NAME = r"[a-zA-Z_:][a-zA-Z0-9_:]*"
_HELP_RE = re.compile(rf"^# HELP ({_NAME}) (.*)$")
_TYPE_RE = re.compile(
    rf"^# TYPE ({_NAME}) (counter|gauge|summary|histogram|untyped)$"
)
_SAMPLE_RE = re.compile(rf"^({_NAME})(?:\{{([^}}]*)\}})? (\S+)$")
_LABEL_RE = re.compile(r'^([a-zA-Z_][a-zA-Z0-9_]*)="([^"]*)"$')


def parse_exposition(text: str) -> dict[str, list[tuple[dict, float]]]:
    """Parse (and validate) the subset of the text format we emit.

    Returns ``{metric_name: [(labels, value), ...]}``.  Raises
    :class:`ValueError` on any malformed line, on samples without a
    preceding ``# TYPE``, or on unparsable label pairs — this is the
    assertion the CI trace smoke runs.
    """
    out: dict[str, list[tuple[dict, float]]] = {}
    typed: set[str] = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            if _HELP_RE.match(line):
                continue
            m = _TYPE_RE.match(line)
            if m:
                typed.add(m.group(1))
                continue
            raise ValueError(f"line {lineno}: malformed comment: {line!r}")
        m = _SAMPLE_RE.match(line)
        if not m:
            raise ValueError(f"line {lineno}: malformed sample: {line!r}")
        name, labelbody, value = m.groups()
        if name not in typed:
            raise ValueError(f"line {lineno}: sample {name!r} without # TYPE")
        labels: dict[str, str] = {}
        if labelbody:
            for pair in labelbody.split(","):
                lm = _LABEL_RE.match(pair)
                if not lm:
                    raise ValueError(
                        f"line {lineno}: malformed label pair: {pair!r}")
                labels[lm.group(1)] = lm.group(2)
        try:
            number = float(value)
        except ValueError:
            raise ValueError(
                f"line {lineno}: non-numeric value: {value!r}") from None
        out.setdefault(name, []).append((labels, number))
    return out
