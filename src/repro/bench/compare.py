"""Compare two archived figure-harness JSON files.

The figure-numerics diff (``make compare``): run ``python -m repro.bench
all --json before.json``, change the code, run again, and diff::

    python -m repro.bench.compare before.json after.json [--tolerance 0.05]

Reports, per figure and series, the worst relative change, and exits
nonzero when any point moved more than the tolerance — suitable as a CI
gate on the calibrated model.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

__all__ = ["PointDelta", "compare_archives", "main"]


@dataclass(frozen=True)
class PointDelta:
    """One point's movement between archives."""

    figure: str
    series: str
    x: float
    before: float
    after: float

    @property
    def rel(self) -> float:
        """Relative change (after vs before); inf when before == 0."""
        if self.before == 0:
            return float("inf") if self.after else 0.0
        return (self.after - self.before) / self.before


def _index(archive: list[dict]) -> dict[tuple[str, str, float], float]:
    out = {}
    for fig in archive:
        for series in fig["series"]:
            for point in series["points"]:
                out[(fig["figure"], series["label"], point["x"])] = point["y"]
    return out


def compare_archives(
    before: list[dict], after: list[dict]
) -> tuple[list[PointDelta], list[tuple[str, str, float]]]:
    """Diff two archives.

    Returns ``(deltas, missing)``: a delta per point present in both,
    and the keys present in exactly one archive.
    """
    a, b = _index(before), _index(after)
    deltas = [
        PointDelta(fig, series, x, a[(fig, series, x)], b[(fig, series, x)])
        for (fig, series, x) in sorted(a.keys() & b.keys())
    ]
    missing = sorted(a.keys() ^ b.keys())
    return deltas, missing


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.compare",
        description="Diff two figure-harness JSON archives.",
    )
    parser.add_argument("before")
    parser.add_argument("after")
    parser.add_argument("--tolerance", type=float, default=0.05,
                        help="max allowed relative change (default 0.05)")
    args = parser.parse_args(argv)

    with open(args.before) as fh:
        before = json.load(fh)
    with open(args.after) as fh:
        after = json.load(fh)
    deltas, missing = compare_archives(before, after)

    bad = [d for d in deltas if abs(d.rel) > args.tolerance]
    worst: dict[tuple[str, str], PointDelta] = {}
    for d in deltas:
        key = (d.figure, d.series)
        if key not in worst or abs(d.rel) > abs(worst[key].rel):
            worst[key] = d
    for (figure, series), d in sorted(worst.items()):
        flag = "  <-- exceeds tolerance" if abs(d.rel) > args.tolerance else ""
        print(f"{figure} / {series}: worst at x={d.x:g}: "
              f"{d.before:,.2f} -> {d.after:,.2f} ({d.rel:+.1%}){flag}")
    for key in missing:
        print(f"only in one archive: {key}")
    print(f"{len(deltas)} points compared, {len(bad)} over tolerance, "
          f"{len(missing)} unmatched")
    return 1 if bad or missing else 0


if __name__ == "__main__":
    sys.exit(main())
