"""Compare two ledger result documents under the benchmark's own bounds.

    python benchmarks/ledger/compare.py A.json B.json

``A`` is the base (the parent commit, or the first set of runs), ``B``
the candidate.  Each is what ``run.py --json`` wrote: one run, or with
``--repeat N`` a set of runs.  One row per (workload, metric): both
medians with their quartiles, and B's median as a ratio of A's.  An
end-to-end metric whose median got worse by more than its bound in
``BENCHMARK.json`` is a REGRESSION; where either side's run-to-run
spread (quartile distance over median) exceeds the bound the row is
"unresolved" rather than "ok", unless every run of B reads better than
every run of A.  Per-layer metrics have no bound and get no verdict
beyond "same" / "differs".  Exit status 1 on any regression or a larger
failed share of operations.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

ROOT = os.path.normpath(os.path.join(os.path.dirname(
    os.path.abspath(__file__)), os.pardir, os.pardir))


def load_runs(path: str) -> list[dict]:
    with open(path) as fh:
        doc = json.load(fh)
    return doc["runs"] if "runs" in doc else [doc]


def collect(runs: list[dict]) -> tuple[dict, dict, dict]:
    """Values by (workload, metric), operations by workload, and units.

    ``({(workload, metric): [values]}, {workload: [attempted, failed]},
    {metric: unit})``
    """
    values: dict[tuple[str, str], list[float]] = {}
    ops: dict[str, list[int]] = {}
    units: dict[str, str] = {}
    for run in runs:
        for name, rec in run["workloads"].items():
            tally = ops.setdefault(name, [0, 0])
            tally[0] += rec["attempted"]
            tally[1] += rec["failed"]
            for metric, m in rec["metrics"].items():
                values.setdefault((name, metric), []).append(m["value"])
                units[metric] = m["unit"]
    return values, ops, units


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def spread(xs: list[float]) -> float:
    q1, q2, q3 = quartiles(xs)
    return abs(q3 - q1) / abs(q2) if q2 else 0.0


def verdict(a: list[float], b: list[float], better: str,
            bound: float | None) -> str:
    med_a, med_b = statistics.median(a), statistics.median(b)
    if bound is None:
        return "same" if sorted(a) == sorted(b) else "differs"
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (med_b - med_a) / abs(med_a) if med_a else 0.0
    all_better = (max(b) < min(a)) if better == "lower" else (min(b) > max(a))
    if max(spread(a), spread(b)) > bound and not all_better:
        return "unresolved"
    if worse_by > bound:
        return "REGRESSION"
    return "ok"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        sys.exit(__doc__)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    layer = {m["name"]: m for m in bench["per_layer"]}
    (va, ops_a, units), (vb, ops_b, _) = (collect(load_runs(p)) for p in argv)

    bad = 0
    print(f"{'workload':<20} {'metric':<44} {'A median [q1..q3]':<34} "
          f"{'B median [q1..q3]':<34} B/A  verdict")
    for key in sorted(va.keys() & vb.keys()):
        name, metric = key
        spec = e2e.get(metric) or layer.get(metric, {})
        res = verdict(va[key], vb[key], spec.get("better", "lower"),
                      spec.get("bound"))
        bad += res == "REGRESSION"
        cells = []
        for xs in (va[key], vb[key]):
            q1, q2, q3 = quartiles(xs)
            cells.append(f"{q2:.5g} [{q1:.5g}..{q3:.5g}] n={len(xs)}")
        base = statistics.median(va[key])
        ratio = (f"{statistics.median(vb[key]) / base:.3f}x of {base:.5g} "
                 f"{units[metric]}" if base else "-")
        print(f"{name:<20} {metric:<44} {cells[0]:<34} {cells[1]:<34} "
              f"{ratio}  {res}")
    for name in sorted(ops_a.keys() & ops_b.keys()):
        (att_a, fail_a), (att_b, fail_b) = ops_a[name], ops_b[name]
        share_a = fail_a / att_a if att_a else 0.0
        share_b = fail_b / att_b if att_b else 0.0
        worse = share_b > share_a
        bad += worse
        print(f"{name:<20} operations failed/attempted: A {fail_a}/{att_a}  "
              f"B {fail_b}/{att_b}{'  LARGER FAILED SHARE' if worse else ''}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
