"""Raw effect-stream recording (the core extracted from the old Tracer).

An :class:`EffectLog` collects ``(time, process, effect_repr)`` callbacks
— the signature of the simulator's trace hook — and supports the
paper-style offline analyses (per-process effect counts, the Figure 3
charge breakdown, the Figure 4 lock-acquisition profile).  It is
runtime-agnostic: anything that can call it with a timestamp, a process
name and an effect string can be analysed, though in practice the
simulated engine is the only producer of full effect streams (real
runtimes use the cheaper structured :class:`~repro.obs.recorder.Recorder`
hooks instead of ``repr``-ing every effect).

:class:`repro.machine.trace.Tracer` is a thin subclass kept for backward
compatibility; its behaviour is byte-identical to the pre-refactor
implementation (tests/machine/test_trace_refactor.py pins this).
"""

from __future__ import annotations

import re
from collections import Counter, defaultdict
from typing import NamedTuple

from .store import Log

__all__ = ["TraceEvent", "EffectLog"]

_CHARGE_RE = re.compile(r"Charge\(work=Work\((.*)\)\)")
_FIELD_RE = re.compile(r"(\w+)=([^,)]+)")


class TraceEvent(NamedTuple):
    """One dispatched effect."""

    time: float
    process: str
    text: str

    @property
    def kind(self) -> str:
        """Effect class name (``Acquire``, ``Charge``, ...)."""
        return self.text.split("(", 1)[0]


class EffectLog:
    """Collects engine trace callbacks; pass as ``SimRuntime(trace=...)``.

    ``limit`` bounds memory: recording stops (but counting continues)
    after that many events.
    """

    def __init__(self, limit: int = 100_000) -> None:
        #: The recorded events, a :class:`~repro.obs.store.Log`.
        self.events: Log = Log(limit)

    @property
    def limit(self) -> int:
        return self.events.limit

    @property
    def total(self) -> int:
        """Events seen, including those past ``limit``."""
        return self.events.total

    def __call__(self, time: float, process: str, text: str) -> None:
        if self.events.admit():
            self.events.append(TraceEvent(time, process, text))

    # -- analyses --------------------------------------------------------------

    def summary(self) -> dict[str, Counter]:
        """Per-process effect-kind counts."""
        out: dict[str, Counter] = defaultdict(Counter)
        for ev in self.events:
            out[ev.process][ev.kind] += 1
        return dict(out)

    def charge_breakdown(self) -> Counter:
        """Total instruction budget per work label, across all processes.

        This is the "where does the time go" view: for the base
        benchmark it shows copy labels dominating at large messages and
        fixed labels dominating at small ones — the paper's Figure 3
        analysis, reproduced from the trace.
        """
        totals: Counter = Counter()
        for ev in self.events:
            m = _CHARGE_RE.match(ev.text)
            if not m:
                continue
            fields = dict(_FIELD_RE.findall(m.group(1)))
            label = fields.get("label", "''").strip("'\"") or "(unlabeled)"
            totals[label] += int(fields.get("instrs", "0"))
        return totals

    def lock_profile(self) -> Counter:
        """Acquisition attempts per lock id."""
        counts: Counter = Counter()
        for ev in self.events:
            if ev.kind == "Acquire":
                m = _FIELD_RE.search(ev.text)
                if m:
                    counts[int(m.group(2))] += 1
        return counts

    def timeline(self, first: int = 40) -> str:
        """Plain-text listing of the first ``first`` events."""
        lines = [f"{'time':>12}  {'process':<12} effect"]
        for ev in self.events[:first]:
            lines.append(f"{ev.time:>12.6f}  {ev.process:<12} {ev.text}")
        if self.total > first:
            lines.append(f"... ({self.total - first} more events)")
        return "\n".join(lines)

    def between(self, t0: float, t1: float) -> list[TraceEvent]:
        """Recorded events with ``t0 <= time < t1``."""
        return [ev for ev in self.events if t0 <= ev.time < t1]
