"""Live telemetry: a stdlib HTTP scrape endpoint + the ``top`` view.

:class:`LiveTelemetryServer` serves a running :class:`~repro.obs.Recorder`
over plain ``http.server`` (no dependencies) so threads/procs/posix runs
can be scraped *mid-run* with standard tooling:

* ``GET /metrics``  — the Prometheus text exposition
  (:func:`repro.obs.export.prometheus_exposition`), including the
  windowed timeline series when a timeline is attached;
* ``GET /findings`` — the health engine's current findings as JSON;
* ``GET /timeline`` — the timeline document fragment as JSON.

The server runs on a daemon thread; sharing the recorder with the
running workers is safe under the GIL, and a scrape racing a dict
mutation simply retries (bounded).  It is observational only — nothing
in the run waits on it.

``mpf-inspect top`` (:func:`top_main`) polls ``/metrics`` and redraws a
plain-text per-series table — curses-free, one ANSI clear per frame —
the live analogue of the post-hoc sojourn tables.
"""

from __future__ import annotations

import json
import threading

from .export import parse_exposition, prometheus_exposition

__all__ = ["LiveTelemetryServer", "fetch_metrics", "render_top", "top_main"]


class LiveTelemetryServer:
    """Scrape endpoint for a (possibly still running) recorder.

    ``health`` is an optional :class:`~repro.obs.health.HealthEngine`;
    when given, the server polls it on every ``/findings`` scrape (so
    findings are produced online) and serves the accumulated list.
    ``port=0`` binds an ephemeral port; read :attr:`url` after
    :meth:`start`.
    """

    def __init__(self, recorder, host: str = "127.0.0.1", port: int = 0,
                 health=None) -> None:
        self.recorder = recorder
        self.health = health
        self._host = host
        self._port = port
        self._httpd = None  # a ThreadingHTTPServer while serving
        self._thread: threading.Thread | None = None
        self.url: str | None = None

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> str:
        # Imported where it serves: ``import repro`` reaches this module
        # on every workload start and should not pay for an HTTP stack.
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

        outer = self

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, *args):  # quiet
                pass

            def _send(self, body: bytes, ctype: str) -> None:
                self.send_response(200)
                self.send_header("Content-Type", ctype)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def do_GET(self):  # noqa: N802 - http.server API
                try:
                    if self.path == "/metrics":
                        self._send(outer._metrics().encode(),
                                   "text/plain; version=0.0.4")
                    elif self.path == "/findings":
                        self._send(json.dumps(outer._findings()).encode(),
                                   "application/json")
                    elif self.path == "/timeline":
                        self._send(json.dumps(outer._timeline()).encode(),
                                   "application/json")
                    else:
                        self.send_error(404, "unknown path")
                except BrokenPipeError:  # pragma: no cover - client gone
                    pass

        self._httpd = ThreadingHTTPServer((self._host, self._port), Handler)
        self._httpd.daemon_threads = True
        host, port = self._httpd.server_address[:2]
        self.url = f"http://{host}:{port}"
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name="mpf-live", daemon=True)
        self._thread.start()
        return self.url

    def stop(self) -> None:
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None

    def __enter__(self) -> "LiveTelemetryServer":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- snapshots (retried: a scrape may race worker-side dict growth) --------

    def _retry(self, fn):
        for _ in range(8):
            try:
                return fn()
            except RuntimeError:  # dict mutated during iteration
                continue
        return fn()

    def _metrics(self) -> str:
        return self._retry(lambda: prometheus_exposition(self.recorder))

    def _findings(self) -> list[dict]:
        if self.health is None:
            return []
        self._retry(self.health.poll)
        return [f.to_dict() for f in self.health.findings]

    def _timeline(self) -> dict:
        tl = getattr(self.recorder, "timeline", None)
        if tl is None:
            return {}
        return self._retry(tl.to_doc)


# -- the live `top` table ------------------------------------------------------


def fetch_metrics(url: str, timeout: float = 5.0):
    """Scrape ``url`` (a server base or full /metrics URL) and parse it."""
    import urllib.request  # as in ``LiveTelemetryServer.start``

    if not url.rstrip("/").endswith("/metrics"):
        url = url.rstrip("/") + "/metrics"
    with urllib.request.urlopen(url, timeout=timeout) as resp:
        text = resp.read().decode()
    return parse_exposition(text)


def _series_table(metrics) -> dict[str, dict[str, float]]:
    """Fold timeline samples into ``{series: {column: value}}`` rows."""
    rows: dict[str, dict[str, float]] = {}

    def put(series: str, col: str, value: float, add=False):
        row = rows.setdefault(series, {})
        row[col] = row.get(col, 0.0) + value if add else value

    for labels, value in metrics.get("mpf_timeline_count_total", []):
        metric = labels.get("metric", "")
        if metric in ("sent", "recv", "contended", "acquires"):
            put(labels.get("series", "?"), metric, value, add=True)
    for labels, value in metrics.get("mpf_timeline_gauge_max", []):
        if labels.get("metric") in ("depth", "live_blocks", "occupancy",
                                    "backlog"):
            put(labels.get("series", "?"), "peak", value)
    for labels, value in metrics.get("mpf_timeline_gauge_avg", []):
        if labels.get("metric") in ("depth", "live_blocks", "occupancy",
                                    "backlog"):
            put(labels.get("series", "?"), "avg", value)
    return rows


def render_top(metrics, clear: bool = False) -> str:
    """One plain-text frame of the live per-series table."""
    cols = ("sent", "recv", "acquires", "contended", "avg", "peak")
    rows = _series_table(metrics)
    lines = []
    if clear:
        lines.append("\x1b[2J\x1b[H")
    spans = next(iter(metrics.get("mpf_spans_total", [({}, 0)])))[1]
    events = next(iter(metrics.get("mpf_engine_events_total",
                                   [({}, 0)])))[1]
    head = f"mpf top — {int(spans)} spans"
    if events:
        head += f", {int(events)} engine events"
    lines.append(head)
    width = max([len(s) for s in rows] + [6])
    lines.append(" ".join([f"{'series':<{width}}"]
                          + [f"{c:>10}" for c in cols]))
    for series in sorted(rows):
        row = rows[series]
        cells = []
        for c in cols:
            v = row.get(c)
            if v is None:
                cells.append(f"{'-':>10}")
            elif float(v).is_integer():
                cells.append(f"{int(v):>10}")
            else:
                cells.append(f"{v:>10.2f}")
        lines.append(" ".join([f"{series:<{width}}"] + cells))
    if not rows:
        lines.append("(no timeline series yet — is a Timeline attached?)")
    return "\n".join(lines)


def top_main(url: str, interval: float = 1.0, iterations: int | None = None,
             out=print, clear: bool = True) -> int:
    """Poll ``url`` and redraw the live table; returns an exit status.

    ``iterations=None`` runs until interrupted; the CLI smoke tests pass
    a small count.  A scrape failure after at least one good frame exits
    0 (the run it watched simply finished and took the endpoint down).
    """
    import time as _time

    frames = 0
    while iterations is None or frames < iterations:
        try:
            metrics = fetch_metrics(url)
        except (OSError, ValueError) as exc:
            if frames:
                out(f"endpoint gone after {frames} frame(s): {exc}")
                return 0
            out(f"cannot scrape {url}: {exc}")
            return 1
        out(render_top(metrics, clear=clear))
        frames += 1
        if iterations is not None and frames >= iterations:
            break
        try:
            _time.sleep(interval)
        except KeyboardInterrupt:  # pragma: no cover - interactive
            break
    return 0
