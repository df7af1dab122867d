"""Live scrape endpoint and the ``top`` view.

Pins the mid-run observability contract: the stdlib HTTP server serves
a parseable Prometheus exposition, JSON findings and the timeline doc
*while workers are still feeding the recorder*; ``mpf-inspect top``
renders a frame from whatever the scrape returned.
"""

import json
import sys
import urllib.error
import urllib.request

import pytest

from repro.core.protocol import FCFS
from repro.obs import (
    CausalTracer,
    HealthEngine,
    LiveTelemetryServer,
    Recorder,
    fetch_metrics,
    render_top,
    top_main,
)
from repro.obs import parse_exposition
from repro.runtime.sim import SimRuntime


def fed_recorder() -> Recorder:
    """A recorder whose timeline saw real traffic (one quick sim run)."""
    def sender(env):
        cid = yield from env.open_send("pipe")
        for i in range(6):
            yield from env.message_send(cid, b"x" * 16)
        yield from env.message_send(cid, b"")
        yield from env.close_send(cid)

    def receiver(env):
        cid = yield from env.open_receive("pipe", FCFS)
        while (yield from env.message_receive(cid)):
            pass
        yield from env.close_receive(cid)

    rec = Recorder(causal=CausalTracer(limit=4096), timeline=True)
    SimRuntime(recorder=rec).run([sender, receiver])
    return rec


def get_json(url: str):
    with urllib.request.urlopen(url, timeout=5) as resp:
        assert resp.headers["Content-Type"] == "application/json"
        return json.loads(resp.read().decode())


def test_importing_repro_does_not_import_an_http_stack():
    """Every workload start pays ``import repro``; the scrape endpoint's
    ``http.server`` / ``urllib.request`` are imported where they serve
    or fetch (~40 ms of ~350 at the commit that moved them)."""
    import subprocess

    code = ("import sys, repro, repro.obs.live; "
            "assert 'http.server' not in sys.modules; "
            "assert 'urllib.request' not in sys.modules")
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60)


def test_metrics_endpoint_serves_parseable_exposition():
    rec = fed_recorder()
    with LiveTelemetryServer(rec) as server:
        metrics = fetch_metrics(server.url)
    # Strict parse (parse_exposition raises on malformed lines) plus the
    # timeline families the ISSUE's scrape gate requires.
    assert "mpf_timeline_count_total" in metrics
    assert "mpf_timeline_windows" in metrics
    assert "mpf_engine_events_total" in metrics
    sent = sum(v for lbl, v in metrics["mpf_timeline_count_total"]
               if lbl.get("metric") == "sent")
    assert sent == 7
    # Series labels are name-resolved, not slot numbers.
    series = {lbl.get("series") for lbl, _ in
              metrics["mpf_timeline_count_total"]}
    assert "circuit:pipe" in series
    # The endpoint text equals the recorder's own exposition.
    assert parse_exposition(rec.prometheus()) == metrics


def test_findings_and_timeline_endpoints():
    rec = fed_recorder()
    health = HealthEngine(rec.timeline)
    with LiveTelemetryServer(rec, health=health) as server:
        findings = get_json(server.url + "/findings")
        tl = get_json(server.url + "/timeline")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            get_json(server.url + "/nope")
    assert excinfo.value.code == 404
    assert findings == []  # a healthy run
    assert tl["width"] == rec.timeline.width
    assert tl["clock"] == "sim"
    assert tl["windows"] and tl["names"]


def test_scrape_races_live_feeding():
    """Scrapes interleaved with worker-side taps must stay parseable —
    the mid-run contract (the CI smoke gate does this over a real
    threads run; here the feeder is inline for determinism)."""
    rec = Recorder(timeline=True)
    with LiveTelemetryServer(rec) as server:
        for i in range(50):
            rec.timeline.tap_send(0.01 * i, i % 4, 64, i % 3)
            rec.timeline.name_slot(i % 4, f"c{i % 4}")
            metrics = fetch_metrics(server.url)
            assert "mpf_timeline_count_total" in metrics
    total = sum(v for lbl, v in metrics["mpf_timeline_count_total"]
                if lbl.get("metric") == "sent")
    assert total == 50


def test_server_without_timeline_still_serves():
    rec = Recorder()
    with LiveTelemetryServer(rec) as server:
        metrics = fetch_metrics(server.url)
        assert get_json(server.url + "/timeline") == {}
        assert get_json(server.url + "/findings") == []
    assert "mpf_timeline_count_total" not in metrics


def test_render_top_table():
    rec = fed_recorder()
    with LiveTelemetryServer(rec) as server:
        metrics = fetch_metrics(server.url)
    frame = render_top(metrics)
    assert "mpf top" in frame and "engine events" in frame
    assert "circuit:pipe" in frame
    header = frame.splitlines()[1]
    for col in ("series", "sent", "recv", "avg", "peak"):
        assert col in header
    assert "\x1b[2J" not in frame
    assert render_top(metrics, clear=True).startswith("\x1b[2J")


def test_render_top_without_timeline_explains():
    assert "no timeline series" in render_top({})


def test_top_main_draws_frames_and_exits():
    rec = fed_recorder()
    frames = []
    with LiveTelemetryServer(rec) as server:
        status = top_main(server.url, interval=0.0, iterations=2,
                          out=frames.append, clear=False)
    assert status == 0
    assert len(frames) == 2
    assert all("circuit:pipe" in f for f in frames)


def test_top_main_reports_unreachable_endpoint():
    out = []
    status = top_main("http://127.0.0.1:9/", interval=0.0, iterations=1,
                      out=out.append)
    assert status == 1
    assert any("cannot scrape" in line for line in out)


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="POSIX runtimes")
def test_mid_run_scrape_of_threads_run():
    """The acceptance shape: scrape /metrics while a threads run is in
    flight, gated on a strict parse."""
    import threading

    from repro.runtime.threads import ThreadRuntime

    gate = threading.Event()
    mid = threading.Event()

    def sender(env):
        cid = yield from env.open_send("jobs")
        rid = yield from env.open_receive("ready", FCFS)
        yield from env.message_receive(rid)
        for i in range(32):
            yield from env.message_send(cid, bytes([i % 251]))
            if i == 16:
                mid.set()  # half the traffic is in: scrape now
                gate.wait(10)  # hold the run open for the scrape
        yield from env.close_send(cid)
        yield from env.close_receive(rid)

    def receiver(env):
        cid = yield from env.open_receive("jobs", FCFS)
        rdy = yield from env.open_send("ready")
        yield from env.message_send(rdy, b"up")
        for _ in range(32):
            yield from env.message_receive(cid)
        yield from env.close_send(rdy)
        yield from env.close_receive(cid)

    rec = Recorder(timeline=True)
    with LiveTelemetryServer(rec) as server:
        url = server.url
        runner = threading.Thread(
            target=lambda: ThreadRuntime(recorder=rec, join_timeout=60)
            .run([sender, receiver]))
        runner.start()
        try:
            assert mid.wait(10)
            metrics = fetch_metrics(url)  # mid-run: sender gated
        finally:
            gate.set()
            runner.join(timeout=60)
        final = fetch_metrics(url)
    mid_sent = sum(v for lbl, v in metrics["mpf_timeline_count_total"]
                   if lbl.get("metric") == "sent")
    assert mid_sent >= 17  # the in-flight run is already visible
    assert "mpf_lock_acquires_total" in final  # children merged at join
    sent = sum(v for lbl, v in final["mpf_timeline_count_total"]
               if lbl.get("metric") == "sent")
    assert sent == 33  # 32 jobs + 1 ready
