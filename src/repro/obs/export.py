"""Exporters for :class:`~repro.obs.recorder.Recorder` measurements.

Four output shapes, matching four audiences:

* :func:`format_lock_profile` / :func:`format_summary` — aligned text
  tables, for terminals and docs;
* :func:`to_jsonl` — one JSON object per span, for ad-hoc analysis
  (``pandas.read_json(..., lines=True)``);
* :func:`chrome_trace` — the Trace Event Format consumed by
  ``chrome://tracing`` and https://ui.perfetto.dev: each worker becomes
  a track, charges and lock holds become duration slices, lock waits
  and channel sleeps become their own slices, so Figure 4's "receivers
  serialize on the circuit lock" is literally visible as stacked
  ``wait lnvc0`` bars;
* :func:`prometheus_exposition` — the Prometheus text format, so a
  figure sweep or a long-running posix segment can be scraped or diffed
  with standard tooling; :func:`parse_exposition` is the matching
  validator (a strict reader of the subset we emit) that the test suite
  and the ``make trace-smoke`` CI gate use to assert the exposition
  stays parseable.

All exporters are observational and deterministic: exporting the same
recorder twice yields identical bytes.
"""

from __future__ import annotations

import json
import re
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .recorder import Recorder

__all__ = [
    "format_lock_profile",
    "format_summary",
    "to_jsonl",
    "write_jsonl",
    "chrome_trace",
    "write_chrome_trace",
    "prometheus_exposition",
    "parse_exposition",
    "write_decision_trace",
    "read_decision_trace",
]


def _table(rows: list[list[str]]) -> str:
    """Right-align ``rows`` (first row is the header) into one string."""
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    lines = []
    for i, row in enumerate(rows):
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
        if i == 0:
            lines.append("-" * (sum(widths) + 2 * (len(widths) - 1)))
    return "\n".join(lines)


def _ms(seconds: float) -> str:
    return f"{seconds * 1e3:.3f}"


def format_lock_profile(rec: "Recorder") -> str:
    """Per-lock table: acquires, contention, wait and hold times (ms)."""
    from .recorder import lock_name

    unit = "sim-ms" if rec.clock == "sim" else "wall-ms"
    rows = [["lock", "name", "acquires", "reacq", "contended",
             f"wait {unit}", f"max {unit}", f"hold {unit}"]]
    for lid, ls in rec.lock_table().items():
        rows.append([
            str(lid), lock_name(lid), str(ls.acquires), str(ls.reacquires),
            str(ls.contended), _ms(ls.wait_seconds), _ms(ls.max_wait),
            _ms(ls.hold_seconds),
        ])
    if len(rows) == 1:
        return "(no lock activity recorded)"
    return _table(rows)


def format_summary(rec: "Recorder") -> str:
    """Per-work-label table plus per-process effect counts."""
    unit = "sim-ms" if rec.clock == "sim" else "wall-ms"
    rows = [["label", "count", "instrs", "flops", unit]]
    for label in sorted(rec.work, key=lambda k: -rec.work[k].instrs):
        ws = rec.work[label]
        rows.append([label, str(ws.count), str(ws.instrs), str(ws.flops),
                     _ms(ws.seconds)])
    parts = []
    if len(rows) > 1:
        parts.append(_table(rows))
    if rec.kinds:
        krows = [["process", "Acquire", "Release", "Charge", "WaitOn", "Wake"]]
        for p in sorted(rec.kinds):
            c = rec.kinds[p]
            krows.append([p] + [str(c.get(k, 0)) for k in
                                ("Acquire", "Release", "Charge", "WaitOn", "Wake")])
        parts.append(_table(krows))
    if rec.dropped_spans:
        parts.append(
            f"(!) {rec.dropped_spans} of {rec.total} spans dropped "
            f"(limit {rec.limit}) — span-based exports are truncated; "
            f"the counters above remain complete"
        )
    return "\n\n".join(parts) if parts else "(nothing recorded)"


def to_jsonl(rec: "Recorder") -> str:
    """Spans as JSON lines (time-ordered)."""
    spans = sorted(rec.spans, key=lambda s: (s.time, s.process))
    return "\n".join(
        json.dumps({"clock": rec.clock, **s._asdict()}, sort_keys=True)
        for s in spans
    )


def write_jsonl(rec: "Recorder", path: str) -> None:
    text = to_jsonl(rec)
    with open(path, "w") as fh:
        fh.write(text + ("\n" if text else ""))


def chrome_trace(rec: "Recorder") -> dict:
    """Trace Event Format dict (load in chrome://tracing or Perfetto).

    Spans are timestamped at their *end*; the slice starts ``duration``
    earlier.  Zero-length events (wakes, free charges on real runtimes)
    become instant events so they stay visible.
    """
    tids = {p: i for i, p in enumerate(
        sorted({s.process for s in rec.spans} | set(rec.kinds)))}
    events: list[dict] = [
        {"ph": "M", "pid": 0, "tid": tid, "name": "thread_name",
         "args": {"name": proc}}
        for proc, tid in tids.items()
    ]
    names = {"charge": "{n}", "acquire": "wait {n}", "release": "hold {n}",
             "chan-wait": "sleep {n}", "wake": "wake {n}"}
    for s in sorted(rec.spans, key=lambda s: (s.time, s.process)):
        dur_us = s.duration * 1e6
        end_us = s.time * 1e6
        ev = {
            "pid": 0,
            "tid": tids[s.process],
            "cat": s.kind,
            # Unknown kinds fall back to the bare name instead of a
            # KeyError, so an exporter never rejects a newer recorder.
            "name": names.get(s.kind, "{n}").format(n=s.name),
        }
        if dur_us > 0:
            ev.update(ph="X", ts=round(end_us - dur_us, 3),
                      dur=round(dur_us, 3))
        else:
            ev.update(ph="i", ts=round(end_us, 3), s="t")
        if s.kind == "wake":
            ev["args"] = {"woken": s.value}
        events.append(ev)
    other = {"clock": rec.clock,
             "spans_recorded": len(rec.spans),
             "spans_dropped": rec.dropped_spans,
             "spans_total": rec.total}
    causal = getattr(rec, "causal", None)
    if causal is not None and causal.events:
        from .causal import causal_async_events

        events.extend(causal_async_events(causal))
        other["causal_events"] = len(causal.events)
        other["causal_dropped"] = causal.dropped
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": other,
    }


def write_chrome_trace(rec: "Recorder", path: str) -> None:
    with open(path, "w") as fh:
        json.dump(chrome_trace(rec), fh)


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
    """Render ``rec`` (its timeline and its causal tracer, where present)
    as the Prometheus text format — ``# HELP`` / ``# TYPE`` comment pairs
    followed by ``name{labels} value`` samples."""
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
                  for k, n in sorted(totals.counters.items())])
        w.metric("mpf_timeline_gauge_avg", "gauge",
                 "Sample-weighted mean of each timeline gauge.",
                 [(_tl(k), cell.mean)
                  for k, cell in sorted(totals.gauges.items())])
        w.metric("mpf_timeline_gauge_max", "gauge",
                 "Peak sampled value of each timeline gauge.",
                 [(_tl(k), cell.max)
                  for k, cell in sorted(totals.gauges.items())])
        w.metric("mpf_timeline_quantile_seconds", "summary",
                 "Whole-run latency quantiles from timeline digests.",
                 [({**_tl(k), "quantile": _fmt(q)}, dig.quantile(q))
                  for k, dig in sorted(totals.digests.items())
                  for q in _QUANTILES])

    tracer = rec.causal
    if tracer is not None:
        from .causal import peak_depth, sojourn_stats

        sent: dict[tuple[int, int], list[int]] = {}
        received: dict[tuple[int, int], list[int]] = {}
        for kind, _, lnvc, msgs, nbytes in tracer.traffic():
            wgt = (sent if kind == "send" else received).setdefault(
                lnvc, [0, 0])
            wgt[0] += msgs
            wgt[1] += nbytes
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


def write_decision_trace(trace: dict, path: str) -> None:
    """Persist a :mod:`repro.check` schedule decision trace as JSON.

    A decision trace is the scheduling half of a controlled run: which
    candidate index was chosen at each multi-candidate point (plus the
    scenario/fault/policy metadata needed to rebuild the run).  The
    format is the dict produced by :func:`repro.check.replay.make_trace`;
    writing is centralized here with the other exporters so traces share
    the observability layer's determinism guarantee.
    """
    if trace.get("format") != 1:
        raise ValueError("not a decision trace (missing format: 1)")
    with open(path, "w") as fh:
        json.dump(trace, fh, indent=1, sort_keys=True)
        fh.write("\n")


def read_decision_trace(path: str) -> dict:
    """Load a decision trace written by :func:`write_decision_trace`."""
    with open(path) as fh:
        trace = json.load(fh)
    if not isinstance(trace, dict) or trace.get("format") != 1:
        raise ValueError(f"{path}: not a decision trace (format != 1)")
    return trace
