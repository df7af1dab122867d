"""Online health attribution over a :class:`~repro.obs.timeline.Timeline`.

The ROADMAP's open serving observation — "traced stall findings show
mid-pipeline circuits falling behind (growing queue residency)" — names
a symptom but not a *place or time*.  The :class:`HealthEngine` folds
timeline windows as they close into structured :class:`Finding`\\ s that
do exactly that:

* ``queue-growth`` — a circuit whose sampled queue depth ramps through
  the run, localized to the circuit and its onset window;
* ``alloc-pressure`` — the shared block pool's live level ramping
  toward exhaustion (the paper's bounded 10-byte-block pool);
* ``saturating-tier`` — the first tier whose queues reach their high
  plateau, i.e. where the serving knee actually bites first;
* ``backpressure-order`` — the tier saturation sequence, which shows
  which direction pressure propagated across the pipeline.

:meth:`poll` is the *online* mode: it re-evaluates after each batch of
newly closed windows and emits each finding once, while the run is
still in flight (the live scrape endpoint's ``/findings`` view and the
threads-runtime poller use it).  :meth:`scan` is the terminal fold the
``mpf-serve-timeline/1`` document embeds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .store import Gauge
from .timeline import Timeline

__all__ = ["Finding", "HealthEngine", "serve_tier_of", "SERVE_TIER_ORDER"]

#: Pipeline order of the serve topology's tiers, upstream to downstream.
SERVE_TIER_ORDER = ("frontends", "workers", "aggregator")


def serve_tier_of(name: str) -> str | None:
    """Map a :mod:`repro.serve` circuit name to its pipeline tier."""
    if name.startswith("serve.front."):
        return "frontends"
    if name.startswith("serve.work."):
        return "workers"
    if name == "serve.agg":
        return "aggregator"
    return None  # barrier gates and foreign circuits


@dataclass
class Finding:
    """One structured health conclusion, localized in series and time."""

    kind: str
    severity: str
    series: str
    detail: str
    onset_window: int | None = None
    onset_time: float | None = None
    data: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "severity": self.severity,
            "series": self.series,
            "detail": self.detail,
            "onset_window": self.onset_window,
            "onset_time": self.onset_time,
            "data": self.data,
        }


def _avg_rows(rows: dict[int, Gauge]) -> list[tuple[int, float]]:
    """Window-average gauge value per window, sorted by window index."""
    return sorted((idx, cell.mean) for idx, cell in rows.items())


def _onset(seq: list[tuple[int, float]], threshold: float) -> tuple[int, float]:
    """First window at or above ``threshold`` (falls back to the peak)."""
    for idx, v in seq:
        if v >= threshold:
            return idx, v
    return max(seq, key=lambda p: p[1])[0], max(v for _, v in seq)


class HealthEngine:
    """Fold closed windows into findings, online or terminally.

    ``tier_of`` maps circuit names to tiers (e.g. :func:`serve_tier_of`);
    without it the tier-level detectors stay silent and only per-circuit
    and allocator findings fire.  ``tier_order`` orders tiers upstream →
    downstream for the propagation-direction verdict.  ``min_depth`` is
    the smallest window-average queue depth treated as saturation
    evidence; ``growth_ratio`` is the late/early ramp factor that
    declares growth.  ``emit`` (optional callable) receives each finding
    once, as soon as a :meth:`poll` first detects it — that is the
    "emitted during the run" path.
    """

    def __init__(self, timeline: Timeline, tier_of=None,
                 tier_order=SERVE_TIER_ORDER, min_depth: float = 2.0,
                 growth_ratio: float = 2.0, emit=None) -> None:
        self.timeline = timeline
        self.tier_of = tier_of
        self.tier_order = tuple(tier_order)
        self.min_depth = min_depth
        self.growth_ratio = growth_ratio
        self.emit = emit
        self._emitted: set[tuple[str, str]] = set()
        self.findings: list[Finding] = []

    # -- detectors -------------------------------------------------------------

    def _depth_series(self) -> dict[str, dict[int, Gauge]]:
        out: dict[str, dict[int, Gauge]] = {}
        for idx, win in self.timeline.windows.items():
            for k, cell in win.gauges.items():
                if k.endswith("|depth") and k.startswith("circuit:"):
                    out.setdefault(k[:k.index("|")], {})[idx] = cell
        return out

    def _growth(self, rows: dict[int, Gauge], floor: float):
        """(onset_window, peak, early, late) if the series ramps, else None."""
        seq = _avg_rows(rows)
        if len(seq) < 2:
            return None
        peak = max(v for _, v in seq)
        if peak < floor:
            return None
        third = max(1, len(seq) // 3)
        early = sum(v for _, v in seq[:third]) / third
        late = sum(v for _, v in seq[-third:]) / third
        if late < max(floor, early * self.growth_ratio):
            return None
        idx, _ = _onset(seq, peak / 2)
        return idx, peak, early, late

    def _circuit_findings(self) -> list[Finding]:
        out = []
        for series, rows in sorted(self._depth_series().items()):
            g = self._growth(rows, self.min_depth)
            if g is None:
                continue
            idx, peak, early, late = g
            label = self.timeline.series_label(series)
            out.append(Finding(
                kind="queue-growth", severity="warn", series=label,
                detail=(f"{label} queue residency grows {early:.1f} → "
                        f"{late:.1f} msgs (peak {peak:.1f}); onset at "
                        f"window {idx} (t≈{idx * self.timeline.width:.3g}s)"),
                onset_window=idx, onset_time=idx * self.timeline.width,
                data={"early_depth": early, "late_depth": late,
                      "peak_depth": peak}))
        return out

    def _pool_finding(self) -> list[Finding]:
        rows = {idx: win.gauges["pool|live_blocks"]
                for idx, win in self.timeline.windows.items()
                if "pool|live_blocks" in win.gauges}
        if not rows:
            return []
        g = self._growth(rows, floor=1.0)
        if g is None:
            return []
        idx, peak, early, late = g
        return [Finding(
            kind="alloc-pressure", severity="warn", series="pool",
            detail=(f"block-pool level ramps {early:.0f} → {late:.0f} live "
                    f"blocks (peak {peak:.0f}); onset at window {idx}"),
            onset_window=idx, onset_time=idx * self.timeline.width,
            data={"early_level": early, "late_level": late,
                  "peak_level": peak})]

    def _tier_findings(self) -> list[Finding]:
        if self.tier_of is None:
            return []
        tiers = self.timeline.tier_series(self.tier_of)
        onsets: list[tuple[int, float, str, float]] = []
        for tier, rows in tiers.items():
            seq = _avg_rows(rows)
            if not seq:
                continue
            peak = max(v for _, v in seq)
            if peak < self.min_depth:
                continue
            idx, v = _onset(seq, max(self.min_depth, 0.5 * peak))
            onsets.append((idx, idx * self.timeline.width, tier, peak))
        if not onsets:
            return []
        order_rank = {t: i for i, t in enumerate(self.tier_order)}
        onsets.sort(key=lambda o: (o[0], order_rank.get(o[2], 99)))
        idx, t, tier, peak = onsets[0]
        out = [Finding(
            kind="saturating-tier", severity="warn", series=f"tier:{tier}",
            detail=(f"{tier} is the first saturating tier: queue depth "
                    f"reaches its plateau (peak {peak:.1f} msgs/circuit) "
                    f"at window {idx} (t≈{t:.3g}s)"),
            onset_window=idx, onset_time=t,
            data={"tier": tier, "peak_depth": peak,
                  "saturated_tiers": [o[2] for o in onsets]})]
        if len(onsets) > 1:
            seqd = ", ".join(f"{o[2]}@w{o[0]}" for o in onsets)
            first, last = onsets[0][2], onsets[-1][2]
            direction = "downstream → upstream" if (
                order_rank.get(first, 0) > order_rank.get(last, 0)
            ) else "upstream → downstream"
            out.append(Finding(
                kind="backpressure-order", severity="info",
                series="pipeline",
                detail=f"tier saturation order: {seqd} ({direction})",
                onset_window=onsets[0][0], onset_time=onsets[0][1],
                data={"order": [{"tier": o[2], "window": o[0],
                                 "peak_depth": o[3]} for o in onsets],
                      "direction": direction}))
        return out

    # -- public API ------------------------------------------------------------

    def scan(self) -> list[Finding]:
        """Evaluate every detector over the whole timeline (idempotent)."""
        return (self._tier_findings() + self._circuit_findings()
                + self._pool_finding())

    def poll(self) -> list[Finding]:
        """Online fold: evaluate and emit findings not yet reported.

        Call periodically while the run is live (the scrape server's
        poller does); each distinct ``(kind, series)`` finding is
        emitted exactly once, with the evidence available at the time it
        first crossed its threshold.
        """
        fresh = []
        for f in self.scan():
            key = (f.kind, f.series)
            if key in self._emitted:
                continue
            self._emitted.add(key)
            self.findings.append(f)
            fresh.append(f)
            if self.emit is not None:
                self.emit(f)
        return fresh
