"""The ``mpf-serve-timeline/1`` document and the probe that feeds it.

A traced serve point at the archived baseline knee (300 rps, probe
size) produces a valid timeline document whose findings name the first
saturating tier and its onset window; a strict validator rejects
malformed documents; and the windowed series are runtime-portable at
the circuit-name level (sim vs threads by counter digest).
"""

import copy
import json
import sys

import pytest

from repro.obs import HealthEngine, Recorder
from repro.serve.slo import build_timeline_doc, validate_timeline
from repro.serve.sweep import run_point
from repro.serve.topology import ServeShape

#: The baseline configuration's archived knee (serve_slo.json), at the
#: SLO probe's size: five seconds of schedule.
KNEE_RPS, KNEE_N = 300.0, 1500


@pytest.fixture(scope="module")
def knee_probe():
    """One causally-traced, timelined sim point at the baseline knee."""
    point, rec = run_point(ServeShape(policy="shed"), KNEE_RPS, KNEE_N,
                           seed=1987, runtime="sim", causal=True,
                           timeline=True)
    health = HealthEngine(rec.timeline)
    health.poll()
    return point, rec, health


def test_knee_findings_name_first_saturating_tier(knee_probe):
    _, rec, health = knee_probe
    sat = [f for f in health.findings if f.kind == "saturating-tier"]
    assert len(sat) == 1
    assert sat[0].series == "tier:aggregator"
    tier = sat[0].data["tier"]
    assert sat[0].onset_window is not None
    assert sat[0].onset_time == pytest.approx(
        sat[0].onset_window * rec.timeline.width)
    assert tier in sat[0].detail and "window" in sat[0].detail


def test_timeline_doc_builds_and_validates(knee_probe):
    _, rec, health = knee_probe
    doc = build_timeline_doc("sim", 1987, KNEE_RPS, rec.timeline,
                             health.findings)
    validate_timeline(doc)  # strict: raises on any malformation
    assert doc["schema"] == "mpf-serve-timeline/1"
    assert doc["timeline"]["clock"] == "sim"
    assert doc["comparison"] is None
    idxs = [w["index"] for w in doc["timeline"]["windows"]]
    assert idxs == sorted(idxs) and len(set(idxs)) == len(idxs)
    # Round-trips as plain JSON.
    assert validate_timeline(json.loads(json.dumps(doc))) is None
    # Serve circuit names reached the document (tier attribution input).
    assert any(n.startswith("serve.") for n in
               doc["timeline"]["names"].values())


def test_timeline_doc_embeds_closed_loop_comparison(knee_probe):
    from repro.serve.cli import _closed_loop_comparison

    _, rec, health = knee_probe
    comparison = _closed_loop_comparison(rec.timeline, "sim",
                                         rec.timeline.width)
    doc = build_timeline_doc("sim", 1987, KNEE_RPS, rec.timeline,
                             health.findings, comparison)
    validate_timeline(doc)
    for leg in ("open_loop", "closed_loop"):
        assert doc["comparison"][leg]["width"] == rec.timeline.width
        assert doc["comparison"][leg]["sends_per_window"]
    assert "sends per window" in doc["comparison"]["figure"]


@pytest.mark.parametrize("mutate, match", [
    (lambda d: d.update(schema="mpf-serve-timeline/2"), "schema"),
    (lambda d: d.update(probe_rps="fast"), "probe_rps"),
    (lambda d: d["timeline"].update(clock="cpu"), "clock"),
    (lambda d: d["timeline"].update(windows=[]), "windows"),
    (lambda d: d["timeline"]["windows"].__setitem__(
        0, d["timeline"]["windows"][1]), "increasing"),
    (lambda d: d["timeline"]["windows"][0]["gauges"].update(
        bad={"n": 1, "sum": 2.0}), "gauge"),
    (lambda d: d["timeline"]["windows"][0]["digests"].update(
        bad={"x": 1}), "digest"),
    (lambda d: d["findings"].append({"kind": "queue-growth"}), "finding"),
    (lambda d: d.update(comparison={"open_loop": {}}), "comparison"),
])
def test_validate_timeline_rejects_malformed(knee_probe, mutate, match):
    _, rec, health = knee_probe
    doc = build_timeline_doc("sim", 1987, KNEE_RPS, rec.timeline,
                             health.findings)
    bad = copy.deepcopy(doc)
    mutate(bad)
    with pytest.raises(ValueError, match=match):
        validate_timeline(bad)


def test_probe_point_unchanged_by_timeline():
    """Attaching the timeline+tracer must not move the SLO point — the
    serving-layer face of the byte-identity pin."""
    shape = ServeShape(policy="shed").with_load_features(batch=8)
    plain, _ = run_point(shape, 200.0, 200, seed=11, runtime="sim")
    timed, rec = run_point(shape, 200.0, 200, seed=11, runtime="sim",
                           causal=True, timeline=True)
    assert timed == plain
    assert rec.timeline.windows  # and the telemetry actually recorded


def test_prebuilt_recorder_overrides_flags():
    """The live endpoint hands run_point a recorder built before the
    run; the flags must not replace it."""
    shape = ServeShape(policy="shed").with_load_features(batch=8)
    mine = Recorder(timeline=True, timeline_width=0.1)
    _, rec = run_point(shape, 100.0, 50, seed=3, runtime="sim",
                       causal=False, timeline=False, recorder=mine)
    assert rec is mine
    assert mine.timeline.windows
    assert mine.timeline.width == 0.1


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="POSIX runtimes")
def test_live_scrape_during_threads_probe():
    """The telemetry-smoke CI gate's shape: a live endpoint over a real
    threads serve probe, scraped mid-run under a strict parse, then the
    finished probe archived as a valid timeline document."""
    import threading
    import time

    from repro.obs import LiveTelemetryServer, fetch_metrics

    shape = ServeShape(policy="stall").with_load_features(batch=8)
    rec = Recorder(causal=True, timeline=True)
    health = HealthEngine(rec.timeline)
    server = LiveTelemetryServer(rec, health=health)
    url = server.start()
    runner = threading.Thread(
        target=lambda: run_point(shape, 120.0, 180, seed=1987,
                                 runtime="threads", recorder=rec))
    runner.start()
    try:
        mid = None
        deadline = time.perf_counter() + 30
        while time.perf_counter() < deadline:
            metrics = fetch_metrics(url)  # strict: raises on bad lines
            windows = next(iter(metrics.get("mpf_timeline_windows",
                                            [({}, 0.0)])))[1]
            if windows >= 2:
                mid = metrics
                break
            time.sleep(0.05)
        assert mid is not None, "no timeline windows appeared mid-run"
        assert "mpf_timeline_count_total" in mid
    finally:
        runner.join(timeout=120)
        server.stop()
    health.poll()
    doc = build_timeline_doc("threads", 1987, 120.0, rec.timeline,
                             health.findings)
    validate_timeline(doc)
    assert doc["timeline"]["clock"] == "wall"


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="POSIX runtimes")
def test_series_parity_sim_vs_threads_by_digest():
    """Same seeded below-knee point, stall policy (no timing-dependent
    sheds): circuit-name-level counter totals agree across runtimes
    even though the wall-clock windowing differs."""
    shape = ServeShape(policy="stall").with_load_features(batch=8)

    def digest(runtime):
        _, rec = run_point(shape, 60.0, 60, seed=7, runtime=runtime,
                           timeline=True)
        tl = rec.timeline
        out: dict[str, float] = {}
        for key, n in tl.totals().counters.items():
            series, metric = key.split("|", 1)
            if not series.startswith("circuit:") or metric not in (
                    "sent", "recv", "bytes_sent", "bytes_recv"):
                continue
            label = tl.series_label(series)
            out[f"{label}|{metric}"] = out.get(f"{label}|{metric}", 0) + n
        return tl.clock_kind, out

    sim_clock, sim_digest = digest("sim")
    thr_clock, thr_digest = digest("threads")
    assert (sim_clock, thr_clock) == ("sim", "wall")
    assert sim_digest == thr_digest
    assert any(k.startswith("circuit:serve.work.") for k in sim_digest)
