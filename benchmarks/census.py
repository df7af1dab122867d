"""Parameter census of the simulated machine: what each knob moves.

Every field of :class:`~repro.core.costmodel.Costs` and
:class:`~repro.machine.balance.MachineConfig` is set, one at a time, to
half and to twice its default (ints rounded), and the quick sweep of
every figure (``python -m repro.bench all --quick``: 120 points in 15
archives) is rerun.  The figure functions take their defaults from the
``DEFAULT_COSTS`` / ``BALANCE_21000`` objects, so each run is a fresh
child process that sets the one field on those objects before it
sweeps; the simulator itself has no census option.

For each paper figure the table gives the largest elasticity
``|ln(y'/y) / ln(θ'/θ)|`` over its points at ×½ and at ×2, and the
ablations and study the field moves.  Status, in order:

* *published hardware (§4)* — the fields of :data:`PUBLISHED`;
* *pinned only as a sum* — the members of a :data:`SUMS` group: the
  figures see the group's total, not its split (the group's largest
  member must reach :data:`PIN` on the named figure, or the run fails);
* *subject of* the ablations it moves, if it moves no paper figure;
* *pinned by* the paper figure it moves most, if that elasticity
  reaches :data:`PIN`: halving or doubling it moves a point by ≥ 19%,
  more than the paper's curves, read by eye, could hide;
* *assumption* otherwise — no published figure constrains its value
  to within a factor of two.

A group member that is not a field, or a field in two groups, fails the
run too.  Run from the repo root (deterministic; 70 runs plus the
baseline: ~7 min of CPU, 3.6 min wall with ``--jobs 2`` on a 2-CPU
host)::

    python benchmarks/census.py            # rewrite the table in EXPERIMENTS.md
    python benchmarks/census.py --jobs 2   # two children at a time, same table
"""

from __future__ import annotations

import argparse
import math
import multiprocessing
import sys
from dataclasses import fields, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.core.costmodel import DEFAULT_COSTS  # noqa: E402
from repro.machine.balance import BALANCE_21000  # noqa: E402

EXPERIMENTS = ROOT / "EXPERIMENTS.md"
BEGIN, END = "<!-- census:begin -->", "<!-- census:end -->"
FACTORS = (0.5, 2.0)
PAPER = tuple(f"Figure {n}" for n in range(3, 9))
#: Elasticity at which a figure pins a field: 2 ** 0.25 = 1.19.
PIN = 0.25

#: Paper §4's published hardware that the simulation reads.
PUBLISHED = ("n_cpus", "bus_bytes_per_second", "cache_bytes", "page_bytes")
#: Budgets the figures see only in total, and the figure that pins it:
#: a round trip of Figure 3 costs one per-message sum plus one per-block
#: sum per 10 payload bytes (its curvature and its asymptote), and every
#: budget is priced in instructions.
SUMS = {
    "per-message sum": (("send_fixed", "recv_fixed", "msg_link",
                         "msg_retire", "msg_discard"), "Figure 3"),
    "per-block sum": (("blk_alloc", "blk_free", "blk_fill", "blk_drain",
                       "copy_byte"), "Figure 3"),
    "product with every budget": (("instr_seconds",), "Figure 3"),
}


def _target(name: str):
    return DEFAULT_COSTS if name in DEFAULT_COSTS.__dataclass_fields__ \
        else BALANCE_21000


def knobs() -> list[str]:
    """Every settable field, costs first, in declaration order."""
    return [f.name for obj in (DEFAULT_COSTS, BALANCE_21000)
            for f in fields(obj)]


def scaled(name: str, factor: float):
    value = getattr(_target(name), name)
    return round(value * factor) if isinstance(value, int) else value * factor


def _run(task: tuple[str | None, float]) -> dict:
    """Child: set one field on the default object, sweep every figure."""
    name, factor = task
    if name is not None:
        obj = _target(name)
        value = scaled(name, factor)
        replace(obj, **{name: value})  # validated like any config
        object.__setattr__(obj, name, value)
    from repro.bench.figures import FIGURES

    points = {}
    for run in FIGURES.values():
        result = run(True, 1)
        for s in result.series:
            for p in s.points:
                points[(result.figure, s.label, p.x)] = p.y
    return points


def sweep(jobs: int) -> tuple[dict, dict]:
    """Baseline points and ``{(field, factor): points}``."""
    tasks = [(None, 1.0)] + [(n, f) for n in knobs() for f in FACTORS]
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(jobs, maxtasksperchild=1) as pool:
        out = pool.map(_run, tasks, chunksize=1)
    return out[0], dict(zip(tasks[1:], out[1:]))


def elasticities(base: dict, moved: dict, name: str, factor: float) -> dict:
    """``{archive: largest |d ln y / d ln θ|}`` over the moved points."""
    old = getattr(_target(name), name)
    dlog = math.log(scaled(name, factor) / old)
    out: dict[str, float] = {}
    for key, y in base.items():
        y2 = moved[key]
        if y2 != y:
            e = abs(math.log(y2 / y) / dlog)
            out[key[0]] = max(out.get(key[0], 0.0), e)
    return out


def _largest(e: dict) -> dict:
    """``{archive: largest elasticity at either factor}``."""
    return {a: max(e[f].get(a, 0.0) for f in FACTORS)
            for a in sorted({a for f in FACTORS for a in e[f]})}


def _group(name: str) -> str | None:
    return next((g for g, (members, _) in SUMS.items() if name in members),
                None)


def status(name: str, e: dict) -> str:
    """The census status of ``name`` given its elasticities ``e``."""
    if name in PUBLISHED:
        return "published hardware (§4)"
    group = _group(name)
    if group is not None:
        return f"pinned only as the {group} ({_fig(SUMS[group][1])})"
    largest = _largest(e)
    paper = {a: v for a, v in largest.items() if a in PAPER}
    if not paper:
        if not largest:
            return "assumption (moves no point)"
        plural = "s" * (len(largest) > 1)
        return f"subject of Ablation{plural} " + _letters(
            a.split()[-1] for a in largest)
    fig = max(PAPER, key=lambda a: paper.get(a, 0.0))
    if paper[fig] >= PIN:
        return f"pinned by {_fig(fig)}"
    return "assumption"


def verify(base: dict, runs: dict) -> list[str]:
    """Each way :data:`SUMS` disagrees with the fields or the sweep."""
    members = [n for ms, _ in SUMS.values() for n in ms]
    bad = [f"{n}: in no dataclass" for n in members if n not in knobs()]
    bad += [f"{n}: in two groups" for n in set(members)
            if members.count(n) > 1]
    for group, (ms, fig) in SUMS.items():
        top = max(elasticities(base, runs[n, f], n, f).get(fig, 0.0)
                  for n in ms if n in knobs() for f in FACTORS)
        if top < PIN:
            bad.append(f"{group}: {fig} moves at most {top:.2f} < {PIN}")
    return bad


def _fig(archive: str) -> str:
    return archive.replace("Figure", "Fig")


def _letters(letters) -> str:
    """``A, B, C, D, P`` -> ``A–D, P``: runs of three or more collapse."""
    runs: list[list[str]] = []
    for c in sorted(letters):
        if runs and ord(c) == ord(runs[-1][-1]) + 1:
            runs[-1].append(c)
        else:
            runs.append([c])
    return ", ".join(f"{r[0]}–{r[-1]}" if len(r) > 2 else ", ".join(r)
                     for r in runs)


def _cell(e: dict, fig: str) -> str:
    lo, hi = (e[f].get(fig) for f in FACTORS)
    if lo is None and hi is None:
        return "·"
    return " / ".join("0" if v is None else "<0.01" if v < 0.005
                      else f"{v:.2f}" for v in (lo, hi))


def render(base: dict, runs: dict) -> str:
    head = ["field", "value", *(f"Fig {f[-1]}" for f in PAPER),
            "other archives moved (largest)", "status"]
    rows = ["| " + " | ".join(head) + " |",
            "|" + "---|" * len(head)]
    for name in knobs():
        e = {f: elasticities(base, runs[name, f], name, f) for f in FACTORS}
        rest = {a: v for a, v in _largest(e).items() if a not in PAPER}
        moved = _letters(a.split()[-1] for a in rest) or "·"
        if rest:
            moved += f" ({max(rest.values()):.2f})"
        value = getattr(_target(name), name)
        cells = [f"`{name}`", f"{value:g}", *(_cell(e, f) for f in PAPER),
                 moved, status(name, e)]
        rows.append("| " + " | ".join(cells) + " |")
    return "\n".join(rows) + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="child processes at a time (default 1)")
    args = parser.parse_args(argv)
    base, runs = sweep(args.jobs)
    bad = verify(base, runs)
    if bad:
        print("census: SUMS disagrees with the fields or the sweep:", *bad,
              sep="\n  ")
        return 1
    text = EXPERIMENTS.read_text()
    head, begin, rest = text.partition(BEGIN + "\n")
    _, end, tail = rest.partition(END)
    if not (begin and end):
        print(f"census: {EXPERIMENTS.name} has no {BEGIN} ... {END} block")
        return 1
    EXPERIMENTS.write_text(head + BEGIN + "\n" + render(base, runs) + END
                           + tail)
    print(f"census: {len(knobs())} fields, {len(runs)} runs; "
          f"table written to {EXPERIMENTS.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
