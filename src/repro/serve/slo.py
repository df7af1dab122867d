"""SLO reporting: latency quantiles, goodput curves, knee detection.

The serving subsystem's deliverable is one JSON document per sweep —
the :class:`SLOReport` — with a row per offered-load point and a
detected saturation knee per configuration.  :func:`validate_slo` is a
strict structural checker (no third-party schema library) used by the
``serve-smoke`` CI gate, so the document format is a contract, not an
accident.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

__all__ = ["SLOReport", "detect_knee", "validate_slo", "POINT_FIELDS",
           "build_timeline_doc", "validate_timeline"]

#: Required numeric fields of every sweep point.
POINT_FIELDS = (
    "offered_rps",
    "goodput_rps",
    "completed",
    "offered",
    "shed",
    "stalls",
    "backpressure_events",
    "p50_ms",
    "p99_ms",
    "p999_ms",
    "window_s",
    "mpf_messages",
)


def detect_knee(points: list[dict], tolerance: float = 0.90) -> float | None:
    """First offered load past the sweep's measured capacity.

    Capacity is the best goodput any point achieved; the knee is the
    first offered load above ``capacity / tolerance`` — where the
    goodput curve demonstrably stops tracking the offered load.  Points
    must be sorted by ``offered_rps``; returns ``None`` when no swept
    load exceeded capacity (service unsaturated across the range).

    Comparing against measured capacity rather than the nominal rate
    keeps the detector honest on short schedules: an open-loop run's
    measurement window carries fixed edges (the random last arrival,
    batch-formation delay, the drain tail), so even an unloaded point
    completes a few percent under nominal — but it still *bounds
    capacity from below*, which is all this needs.
    """
    cap = max(p["goodput_rps"] for p in points)
    for p in points:
        if p["offered_rps"] > cap / tolerance:
            return p["offered_rps"]
    return None


@dataclass
class SLOReport:
    """One sweep's SLO document: per-config goodput/latency curves."""

    runtime: str
    seed: int
    #: label -> {"shape": {...}, "points": [...], "knee_rps": float|None}
    configs: dict = field(default_factory=dict)
    #: Free-form lines: the traced probe's summary, then the details of
    #: the health engine's findings over its timeline.
    findings: list = field(default_factory=list)

    def add_config(self, label: str, shape: dict,
                   points: list[dict]) -> None:
        self.configs[label] = {
            "shape": shape,
            "points": points,
            "knee_rps": detect_knee(points),
        }

    def knee_goodput(self, label: str) -> float | None:
        """Peak goodput at or past the knee (the saturated plateau)."""
        cfg = self.configs[label]
        knee = cfg["knee_rps"]
        pts = cfg["points"]
        sat = [p for p in pts if knee is None or p["offered_rps"] >= knee]
        return max((p["goodput_rps"] for p in sat), default=None)

    def to_dict(self) -> dict:
        return {
            "schema": "mpf-serve-slo/1",
            "runtime": self.runtime,
            "seed": self.seed,
            "configs": self.configs,
            "findings": list(self.findings),
            "total_mpf_messages": sum(
                p["mpf_messages"]
                for cfg in self.configs.values() for p in cfg["points"]),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    # -- presentation -------------------------------------------------------

    def format_table(self) -> str:
        lines = [f"serve: open-loop SLO sweep — {self.runtime} runtime, "
                 f"seed {self.seed}"]
        head = ["offered/s", "goodput/s", "p50 ms", "p99 ms", "p999 ms",
                "shed", "stalls", "bp"]
        for label, cfg in self.configs.items():
            knee = cfg["knee_rps"]
            knee_txt = f"knee @ {knee:g} rps" if knee else "no knee in range"
            lines.append("")
            lines.append(f"  [{label}] {knee_txt}")
            rows = [head]
            for p in cfg["points"]:
                rows.append([
                    f"{p['offered_rps']:g}",
                    f"{p['goodput_rps']:.1f}",
                    f"{p['p50_ms']:.2f}",
                    f"{p['p99_ms']:.2f}",
                    f"{p['p999_ms']:.2f}",
                    str(p["shed"]),
                    str(p["stalls"]),
                    str(p["backpressure_events"]),
                ])
            widths = [max(len(r[i]) for r in rows) for i in range(len(head))]
            for i, row in enumerate(rows):
                lines.append("    " + "  ".join(
                    c.rjust(w) for c, w in zip(row, widths)))
                if i == 0:
                    lines.append("    " + "-" * (sum(widths)
                                                 + 2 * (len(widths) - 1)))
        for f in self.findings:
            lines.append(f"  (!) {f}")
        return "\n".join(lines)


def _fail(path: str, msg: str) -> None:
    raise ValueError(f"SLO document invalid at {path}: {msg}")


def validate_slo(doc: dict) -> None:
    """Structurally validate an SLO document; raises ``ValueError``."""
    if not isinstance(doc, dict):
        _fail("$", "not an object")
    if doc.get("schema") != "mpf-serve-slo/1":
        _fail("$.schema", f"unknown schema {doc.get('schema')!r}")
    if not isinstance(doc.get("runtime"), str):
        _fail("$.runtime", "missing or not a string")
    if not isinstance(doc.get("seed"), int):
        _fail("$.seed", "missing or not an int")
    configs = doc.get("configs")
    if not isinstance(configs, dict) or not configs:
        _fail("$.configs", "missing or empty")
    for label, cfg in configs.items():
        base = f"$.configs[{label!r}]"
        if not isinstance(cfg, dict):
            _fail(base, "not an object")
        if not isinstance(cfg.get("shape"), dict):
            _fail(f"{base}.shape", "missing or not an object")
        knee = cfg.get("knee_rps")
        if knee is not None and not isinstance(knee, (int, float)):
            _fail(f"{base}.knee_rps", "not a number or null")
        points = cfg.get("points")
        if not isinstance(points, list) or not points:
            _fail(f"{base}.points", "missing or empty")
        last = None
        for i, p in enumerate(points):
            ppath = f"{base}.points[{i}]"
            if not isinstance(p, dict):
                _fail(ppath, "not an object")
            for key in POINT_FIELDS:
                if not isinstance(p.get(key), (int, float)):
                    _fail(f"{ppath}.{key}", "missing or not a number")
            if last is not None and p["offered_rps"] < last:
                _fail(f"{ppath}.offered_rps", "points not sorted by load")
            last = p["offered_rps"]
    if not isinstance(doc.get("findings"), list):
        _fail("$.findings", "missing or not a list")
    if not isinstance(doc.get("total_mpf_messages"), int):
        _fail("$.total_mpf_messages", "missing or not an int")


# -- the windowed-telemetry document (mpf-serve-timeline/1) -------------------


def build_timeline_doc(runtime: str, seed: int, probe_rps: float,
                       timeline, findings, comparison: dict | None = None,
                       ) -> dict:
    """Assemble the ``mpf-serve-timeline/1`` document for one probe.

    ``timeline`` is a :class:`repro.obs.Timeline`; ``findings`` the
    :class:`repro.obs.HealthEngine` findings for the same probe;
    ``comparison`` the optional closed-vs-open-loop section the serve
    CLI builds.  The result round-trips through JSON unchanged and
    passes :func:`validate_timeline`.
    """
    return {
        "schema": "mpf-serve-timeline/1",
        "runtime": runtime,
        "seed": seed,
        "probe_rps": probe_rps,
        "timeline": timeline.to_doc(),
        "findings": [f.to_dict() for f in findings],
        "comparison": comparison,
    }


def _tfail(path: str, msg: str) -> None:
    raise ValueError(f"timeline document invalid at {path}: {msg}")


def _check_num(doc: dict, path: str, key: str) -> None:
    v = doc.get(key)
    if not isinstance(v, (int, float)) or isinstance(v, bool):
        _tfail(f"{path}.{key}", "missing or not a number")


def validate_timeline(doc: dict) -> None:
    """Strict structural check of an ``mpf-serve-timeline/1`` document.

    The ``telemetry-smoke`` CI gate runs this on the document a quick
    sweep emits; like :func:`validate_slo` it makes the format a
    contract.  Raises :class:`ValueError` at the first violation.
    """
    if not isinstance(doc, dict):
        _tfail("$", "not an object")
    if doc.get("schema") != "mpf-serve-timeline/1":
        _tfail("$.schema", f"unknown schema {doc.get('schema')!r}")
    if not isinstance(doc.get("runtime"), str):
        _tfail("$.runtime", "missing or not a string")
    if not isinstance(doc.get("seed"), int):
        _tfail("$.seed", "missing or not an int")
    _check_num(doc, "$", "probe_rps")
    tl = doc.get("timeline")
    if not isinstance(tl, dict):
        _tfail("$.timeline", "missing or not an object")
    width = tl.get("width")
    if not isinstance(width, (int, float)) or width <= 0:
        _tfail("$.timeline.width", "not a positive number")
    if tl.get("clock") not in ("sim", "wall"):
        _tfail("$.timeline.clock", f"not 'sim'/'wall': {tl.get('clock')!r}")
    names = tl.get("names")
    if not isinstance(names, dict) or not all(
            isinstance(k, str) and isinstance(v, str)
            for k, v in names.items()):
        _tfail("$.timeline.names", "not an object of strings")
    windows = tl.get("windows")
    if not isinstance(windows, list) or not windows:
        _tfail("$.timeline.windows", "missing or empty")
    last = None
    for i, win in enumerate(windows):
        wpath = f"$.timeline.windows[{i}]"
        if not isinstance(win, dict):
            _tfail(wpath, "not an object")
        if not isinstance(win.get("index"), int):
            _tfail(f"{wpath}.index", "missing or not an int")
        _check_num(win, wpath, "start")
        if last is not None and win["index"] <= last:
            _tfail(f"{wpath}.index", "windows not strictly increasing")
        last = win["index"]
        counters = win.get("counters")
        if not isinstance(counters, dict) or not all(
                isinstance(k, str)
                and isinstance(v, (int, float)) and not isinstance(v, bool)
                for k, v in counters.items()):
            _tfail(f"{wpath}.counters", "not an object of numbers")
        gauges = win.get("gauges")
        if not isinstance(gauges, dict):
            _tfail(f"{wpath}.gauges", "missing or not an object")
        for k, cell in gauges.items():
            if not isinstance(cell, dict) or set(cell) != {
                    "n", "sum", "min", "max"} or not all(
                    isinstance(cell[f], (int, float))
                    and not isinstance(cell[f], bool) for f in cell):
                _tfail(f"{wpath}.gauges[{k!r}]",
                       "not {n, sum, min, max} numbers")
        digests = win.get("digests")
        if not isinstance(digests, dict):
            _tfail(f"{wpath}.digests", "missing or not an object")
        for k, dig in digests.items():
            if not isinstance(dig, dict) or not all(
                    isinstance(b, str) and b.lstrip("-").isdigit()
                    and isinstance(n, int) and n >= 0
                    for b, n in dig.items()):
                _tfail(f"{wpath}.digests[{k!r}]",
                       "not an object of integer bucket counts")
    findings = doc.get("findings")
    if not isinstance(findings, list):
        _tfail("$.findings", "missing or not a list")
    for i, f in enumerate(findings):
        fpath = f"$.findings[{i}]"
        if not isinstance(f, dict):
            _tfail(fpath, "not an object")
        for key in ("kind", "severity", "series", "detail"):
            if not isinstance(f.get(key), str):
                _tfail(f"{fpath}.{key}", "missing or not a string")
        for key in ("onset_window", "onset_time"):
            v = f.get(key)
            if v is not None and (not isinstance(v, (int, float))
                                  or isinstance(v, bool)):
                _tfail(f"{fpath}.{key}", "not a number or null")
        if not isinstance(f.get("data"), dict):
            _tfail(f"{fpath}.data", "missing or not an object")
    comparison = doc.get("comparison")
    if comparison is not None:
        if not isinstance(comparison, dict):
            _tfail("$.comparison", "not an object or null")
        for side in ("open_loop", "closed_loop"):
            sec = comparison.get(side)
            spath = f"$.comparison.{side}"
            if not isinstance(sec, dict):
                _tfail(spath, "missing or not an object")
            if not isinstance(sec.get("label"), str):
                _tfail(f"{spath}.label", "missing or not a string")
            _check_num(sec, spath, "width")
            sends = sec.get("sends_per_window")
            if not isinstance(sends, list) or not all(
                    isinstance(v, (int, float)) and not isinstance(v, bool)
                    for v in sends):
                _tfail(f"{spath}.sends_per_window", "not a list of numbers")
        fig = comparison.get("figure")
        if fig is not None and not isinstance(fig, str):
            _tfail("$.comparison.figure", "not a string or null")
