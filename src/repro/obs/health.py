"""Health attribution over a :class:`~repro.obs.timeline.Timeline`.

The one place the repo says "something is backing up".  The
:class:`HealthEngine` folds a finished run's timeline windows into
structured :class:`Finding`\\ s, each localized to a series and an onset
window, and each shown to recall an injected fault and to stay silent on
the archived below-knee serve points (tests/obs/test_health_recall.py,
table in docs/telemetry.md):

* ``queue-growth`` — a circuit whose sampled queue depth keeps growing
  through the run (a consumer that stopped keeping up);
* ``saturating-tier`` — the first :mod:`repro.serve` tier whose folded
  queue depth passes the same growth test: in an open loop, a tier past
  its knee is one whose queue keeps growing;
* ``alloc-pressure`` — pops that found the shared block pool empty (the
  paper's bounded pool of 10-byte blocks refusing a send).

There is no tier *order* verdict: every serve tier but the slow one
drains its inbound circuit into a private backlog, so only one tier's
circuits grow.

:meth:`HealthEngine.scan` is the one verdict: the ``bench trace
--causal`` report prints it and the ``mpf-serve-timeline/1`` document
(and ``serve_slo.json``'s findings) embed it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .store import Gauge
from .timeline import Timeline

__all__ = ["Finding", "HealthEngine", "serve_tier_of", "SERVE_TIER_ORDER"]

#: Pipeline order of the serve topology's tiers, upstream to downstream;
#: of two tiers that start growing in the same window, the upstream one
#: is named.
SERVE_TIER_ORDER = ("frontends", "workers", "aggregator")

#: Fewest sampled windows a growth verdict is made on.  Thirds of a
#: shorter series are one or two windows, so a queue or pool that fills
#: at startup reads as growth: fig4 / fig5 ``--quick`` on procs span two
#: 50 ms windows and reported ``alloc-pressure`` and ``queue-growth``.
MIN_WINDOWS = 6

#: Late-third over early-third mean depth that declares growth.  On the
#: sim serve points below the archived knees no tier's late third
#: averaged more than 1.5× its first (batched 700 rps: frontends 1.05 →
#: 1.61 msgs); at baseline's 300 rps knee the aggregator's grew 4.0×
#: (23.5 → 94.5), and workers throttled to 83 rps under 100 rps 2.8×.
GROWTH_RATIO = 2.0

#: Smallest late-third mean depth, in messages, that counts as a queue.
#: An idle circuit's depth alternates 0 and 1, so it can double without
#: backing up: the deepest late third of a circuit that grew on those
#: clean points was 1.72 msgs (batched 700 rps, ``serve.front.5``).
MIN_DEPTH = 2.0


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


def _growth(rows: dict[int, Gauge]):
    """(onset_window, peak, early, late) if the depth series keeps
    growing — its last third's mean at least :data:`GROWTH_RATIO` times
    its first third's and at least :data:`MIN_DEPTH` — else None.  The
    onset is the first window at half the peak."""
    seq = sorted((idx, cell.mean) for idx, cell in rows.items())
    if len(seq) < MIN_WINDOWS:
        return None
    third = len(seq) // 3
    early = sum(v for _, v in seq[:third]) / third
    late = sum(v for _, v in seq[-third:]) / third
    if late < max(MIN_DEPTH, early * GROWTH_RATIO):
        return None
    peak = max(v for _, v in seq)
    onset = next(idx for idx, v in seq if v >= peak / 2)
    return onset, peak, early, late


class HealthEngine:
    """Fold the windows of ``timeline`` into findings.  Circuits are put
    in tiers by :func:`serve_tier_of`, so the tier kinds stay silent
    outside the serve topology."""

    def __init__(self, timeline: Timeline) -> None:
        self.timeline = timeline

    # -- detectors -------------------------------------------------------------

    def _circuit_findings(self) -> list[Finding]:
        series: dict[str, dict[int, Gauge]] = {}
        for idx, win in self.timeline.windows.items():
            for k, cell in win.gauges.items():
                if k.endswith("|depth") and k.startswith("circuit:"):
                    series.setdefault(k[:k.index("|")], {})[idx] = cell
        out = []
        width = self.timeline.width
        for key, rows in sorted(series.items()):
            g = _growth(rows)
            if g is None:
                continue
            idx, peak, early, late = g
            label = self.timeline.series_label(key)
            out.append(Finding(
                kind="queue-growth", severity="warn", series=label,
                detail=(f"{label} queue residency grows {early:.1f} → "
                        f"{late:.1f} msgs (peak {peak:.1f}); onset at "
                        f"window {idx} (t≈{idx * width:.3g}s)"),
                onset_window=idx, onset_time=idx * width,
                data={"early_depth": early, "late_depth": late,
                      "peak_depth": peak}))
        return out

    def _pool_finding(self) -> list[Finding]:
        dry = sorted((idx, win.counters["pool|dry"])
                     for idx, win in self.timeline.windows.items()
                     if win.counters.get("pool|dry"))
        if not dry:
            return []
        idx = dry[0][0]
        total = sum(n for _, n in dry)
        return [Finding(
            kind="alloc-pressure", severity="warn", series="pool",
            detail=(f"block pool ran dry {total:.0f} time(s) in "
                    f"{len(dry)} window(s); first at window {idx}"),
            onset_window=idx, onset_time=idx * self.timeline.width,
            data={"failed_pops": total, "windows": len(dry),
                  "peak_per_window": max(n for _, n in dry)})]

    def _tier_findings(self) -> list[Finding]:
        width = self.timeline.width
        rank = {t: i for i, t in enumerate(SERVE_TIER_ORDER)}
        grown = []
        for tier, rows in self.timeline.tier_series(serve_tier_of).items():
            g = _growth(rows)
            if g is not None:
                grown.append((g[0], rank[tier], tier, g[1]))
        if not grown:
            return []
        grown.sort()
        idx, _, tier, peak = grown[0]
        return [Finding(
            kind="saturating-tier", severity="warn", series=f"tier:{tier}",
            detail=(f"{tier} is the first saturating tier: its queues keep "
                    f"growing (peak {peak:.1f} msgs/circuit) from window "
                    f"{idx} (t≈{idx * width:.3g}s)"),
            onset_window=idx, onset_time=idx * width,
            data={"tier": tier, "peak_depth": peak,
                  "saturated_tiers": [g[2] for g in grown]})]

    # -- public API ------------------------------------------------------------

    def scan(self) -> list[Finding]:
        """Evaluate every detector over the whole timeline (idempotent)."""
        return (self._tier_findings() + self._circuit_findings()
                + self._pool_finding())
