"""Online health attribution: detectors, onset localization, emit-once.

Synthetic timelines with hand-placed ramps pin each detector's verdict
exactly — which series, which onset window — and the online ``poll``
contract (each finding returned exactly once, while the run is still in
flight).  Whether the kinds recall real faults and stay silent on clean
runs is tests/obs/test_health_recall.py.
"""

from repro.obs import HealthEngine, Timeline, serve_tier_of
from repro.obs.health import MIN_WINDOWS, SERVE_TIER_ORDER

WIDTH = 0.05


def ramped_timeline() -> Timeline:
    """Workers saturate at window 5, frontends later at window 7."""
    tl = Timeline(width=WIDTH)
    tl.name_slot(0, "serve.work.0")
    tl.name_slot(1, "serve.front.0")
    tl.name_slot(2, "serve.gate")  # no tier: must stay invisible
    workers = [0, 0, 0, 1, 2, 4, 6, 8, 8, 8]
    fronts = [0, 0, 0, 0, 0, 0, 1, 3, 6, 6]
    for idx, (w, f) in enumerate(zip(workers, fronts)):
        t = (idx + 0.5) * WIDTH
        tl.gauge(t, "circuit:0|depth", float(w))
        tl.gauge(t, "circuit:1|depth", float(f))
        tl.gauge(t, "circuit:2|depth", 50.0)  # flat, and tier-less
    return tl


def by_kind(findings):
    out = {}
    for f in findings:
        out.setdefault(f.kind, []).append(f)
    return out


def test_serve_tier_of_maps_topology_names():
    assert serve_tier_of("serve.front.3") == "frontends"
    assert serve_tier_of("serve.work.0") == "workers"
    assert serve_tier_of("serve.agg") == "aggregator"
    assert serve_tier_of("serve.gate") is None
    assert serve_tier_of("jobs") is None
    assert SERVE_TIER_ORDER == ("frontends", "workers", "aggregator")


def test_saturating_tier_names_first_tier_and_onset_window():
    engine = HealthEngine(ramped_timeline())
    kinds = by_kind(engine.scan())
    (sat,) = kinds["saturating-tier"]
    assert sat.series == "tier:workers"
    assert sat.onset_window == 5  # first window >= half the peak of 8
    assert sat.onset_time == 5 * WIDTH
    assert "workers" in sat.detail and "window 5" in sat.detail
    assert sat.data["saturated_tiers"] == ["workers", "frontends"]


def test_queue_growth_localizes_circuit_by_name():
    engine = HealthEngine(ramped_timeline())
    kinds = by_kind(engine.scan())
    series = {f.series for f in kinds["queue-growth"]}
    # Both ramping circuits fire, name-resolved; the flat tier-less
    # circuit never does (no growth, however deep it sits).
    assert series == {"circuit:serve.work.0", "circuit:serve.front.0"}
    worker = next(f for f in kinds["queue-growth"]
                  if f.series == "circuit:serve.work.0")
    assert worker.onset_window == 5
    assert worker.data["peak_depth"] == 8.0


def test_tier_detectors_silent_outside_serve_topology():
    tl = ramped_timeline()
    tl.names = {0: "jobs", 1: "results", 2: "gate"}
    kinds = by_kind(HealthEngine(tl).scan())
    assert "saturating-tier" not in kinds
    assert {f.series for f in kinds["queue-growth"]} == {"circuit:jobs",
                                                         "circuit:results"}


def test_alloc_pressure_from_pool_ramp():
    """Pops that found the pool empty, more of them window by window."""
    tl = Timeline(width=WIDTH)
    for idx, dry in enumerate([0, 0, 0, 1, 2, 4, 8, 10, 12]):
        if dry:
            tl.count((idx + 0.5) * WIDTH, "pool|dry", dry)
    tl.gauge(0.5 * WIDTH, "pool|live_blocks", 1.0)  # a level is no verdict
    (pool,) = HealthEngine(tl).scan()
    assert (pool.kind, pool.series) == ("alloc-pressure", "pool")
    assert pool.onset_window == 3
    assert pool.data == {"failed_pops": 37, "windows": 6,
                         "peak_per_window": 12}


def test_two_window_startup_fill_is_not_growth():
    """A queue and a pool that fill while the run starts, seen in two
    windows: the first is "early", the last "late", and a ramp detector
    judging thirds of two windows called it growth."""
    tl = Timeline(width=WIDTH)
    tl.name_slot(0, "done.in")
    for idx, (depth, live) in enumerate([(0.0, 1.0), (8.0, 120.0)]):
        tl.gauge((idx + 0.5) * WIDTH, "circuit:0|depth", depth)
        tl.gauge((idx + 0.5) * WIDTH, "pool|live_blocks", live)
    assert len(tl.windows) == 2 < MIN_WINDOWS
    assert HealthEngine(tl).scan() == []


def test_healthy_run_produces_no_findings():
    tl = Timeline(width=WIDTH)
    tl.name_slot(0, "serve.work.0")
    for idx in range(10):
        tl.gauge((idx + 0.5) * WIDTH, "circuit:0|depth", 1.0)
    assert HealthEngine(tl).scan() == []


def test_poll_emits_each_finding_exactly_once():
    engine = HealthEngine(ramped_timeline())
    fresh = engine.poll()
    assert [(f.kind, f.series) for f in fresh] == [
        ("saturating-tier", "tier:workers"),
        ("queue-growth", "circuit:serve.work.0"),
        ("queue-growth", "circuit:serve.front.0"),
    ]
    assert engine.findings == fresh
    assert engine.poll() == []  # second poll: nothing new
    assert engine.findings == fresh


def test_poll_is_incremental_as_windows_close():
    tl = Timeline(width=WIDTH)
    tl.name_slot(0, "serve.work.0")
    engine = HealthEngine(tl)
    # Flat early phase: nothing to report yet.
    for idx in range(4):
        tl.gauge((idx + 0.5) * WIDTH, "circuit:0|depth", 0.5)
    assert engine.poll() == []
    # The ramp arrives mid-run; the next poll finds it online.
    for idx, d in enumerate([2, 4, 8, 8], start=4):
        tl.gauge((idx + 0.5) * WIDTH, "circuit:0|depth", float(d))
    fresh = engine.poll()
    assert {f.kind for f in fresh} >= {"queue-growth", "saturating-tier"}
    assert engine.poll() == []


def test_finding_to_dict_is_json_shaped():
    engine = HealthEngine(ramped_timeline())
    for f in engine.scan():
        d = f.to_dict()
        assert set(d) == {"kind", "severity", "series", "detail",
                          "onset_window", "onset_time", "data"}
        assert isinstance(d["data"], dict)
