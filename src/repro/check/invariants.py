"""Invariants the checker evaluates, and when it is safe to do so.

The *structural* invariants of the shared segment (allocator
conservation, FIFO shape, descriptor-cache coherence, ...) live in
:func:`repro.core.inspect.check_invariants` so the ordinary test suite
shares them.  This module adds the two pieces that are specific to
model checking:

* **quiescence classification** — deciding at which points of a
  controlled run each invariant tier may be evaluated without false
  alarms (see :func:`segment_quiescent` and :class:`SteadyProbe`);
* **the delivery law** — the paper's §2 contract stated once
  (:func:`check_delivery`: FCFS exactly-once, BROADCAST every receiver
  in one order, per-sender FIFO order, the segment's traffic counters
  against the logged traffic), judged on what every worker of a run
  sent and received.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Iterable

from ..core.inspect import (
    InvariantViolation,
    check_invariants,
    collect_violations,
)
from ..core.protocol import BROADCAST, FCFS, Protocol

__all__ = [
    "InvariantViolation",
    "check_invariants",
    "collect_violations",
    "segment_quiescent",
    "SteadyProbe",
    "check_delivery",
]


def segment_quiescent(engine) -> bool:
    """True when no simulated process holds any lock.

    Every MPF primitive mutates shared bytes only in chunks bracketed by
    lock acquire/release effects, so "no lock held" means no mutation of
    a locked structure is in flight — the *steady*-tier invariants hold
    at exactly these points.  (An operation may still be mid-flight in a
    benign sense: a send between its allocation and link phases holds an
    allocated-but-unlinked header, which the steady tier tolerates.)
    """
    return all(lock.owner is None for lock in engine.locks)


class SteadyProbe:
    """Evaluate steady-tier invariants at quiescent decision points.

    Installed by ``run_schedule`` into the controlled scheduler: at each
    scheduling decision where no lock is held, the probe re-checks the
    segment and raises :class:`InvariantViolation` on the spot — so a
    corruption is reported at (or near) the decision that exposed it,
    not thousands of events later at the end of the run.
    """

    def __init__(self, view) -> None:
        self.view = view
        self.checks = 0

    def __call__(self, engine) -> None:
        if segment_quiescent(engine):
            self.checks += 1
            check_invariants(self.view, level="steady")


def check_delivery(logs: Iterable[tuple[list, list]], totals: dict) -> list[str]:
    """The paper's §2 delivery contract over what a run's workers did.

    ``logs`` holds one ``(sent, received)`` pair per worker, each in call
    order: ``sent`` its completed ``message_send`` calls as ``(circuit,
    rank, payload)``, ``received`` its completed ``message_receive`` calls
    as ``(circuit, rank, protocol, payload)``.  ``totals`` carries the
    segment's ``total_sends`` / ``total_receives``
    (:func:`~repro.core.inspect.traffic_totals`).  Checked:

    1. the segment's counters equal the logged counts (a counter updated
       outside the lock that guards it breaks this);

    and on every circuit:

    2. if an FCFS receiver took from it, the FCFS receivers together
       took exactly the multiset sent;
    3. every BROADCAST receiver saw every payload, and all BROADCAST
       receivers saw the same sequence;
    4. every receiver took each sender's payloads in send order — over
       the payloads that occur once on the circuit, since a repeated
       token such as ``b"ready"`` carries no order.

    The law assumes every receiver connected before traffic started and
    the run drained.  Returns violation strings (empty = clean).
    """
    sent: dict[str, list[tuple[int, bytes]]] = defaultdict(list)
    took: dict[str, dict[tuple[int, Protocol], list[bytes]]] = \
        defaultdict(dict)
    logged = {"sends": 0, "receives": 0}
    for sends, receives in logs:
        logged["sends"] += len(sends)
        logged["receives"] += len(receives)
        for circuit, rank, payload in sends:
            sent[circuit].append((rank, payload))
        for circuit, rank, protocol, payload in receives:
            took[circuit].setdefault((rank, protocol), []).append(payload)
    out = [f"header counts {totals[f'total_{what}']} {what}, workers "
           f"completed {n}"
           for what, n in logged.items() if totals[f"total_{what}"] != n]
    for circuit in sorted(sent.keys() | took.keys()):
        out += _circuit_law(circuit, sent[circuit],
                            sorted(took[circuit].items()))
    return out


def _circuit_law(circuit: str, sent: list, took: list) -> list[str]:
    """Items 2–4 of :func:`check_delivery` on one circuit: ``sent`` holds
    its ``(rank, payload)`` sends, ``took`` its receivers'
    ``((rank, protocol), payloads)``."""
    out = []
    want = Counter(p for _, p in sent)
    fcfs = Counter(p for (_, proto), got in took if proto == FCFS
                   for p in got)
    if fcfs and fcfs != want:
        out.append(f"{circuit}: FCFS receivers took {fcfs.total()} of "
                   f"{want.total()} sent" + _diff(fcfs, want))
    bcast = [(rank, got) for (rank, proto), got in took if proto == BROADCAST]
    for rank, got in bcast:
        if Counter(got) != want:
            out.append(f"{circuit}: BROADCAST receiver p{rank} saw "
                       f"{len(got)} of {want.total()} sent"
                       + _diff(Counter(got), want))
    if len({tuple(got) for _, got in bcast}) > 1:
        out.append(f"{circuit}: BROADCAST receivers saw different orders: "
                   + "; ".join(f"p{rank} {got}" for rank, got in bcast))
    pos = {p: (rank, i) for i, (rank, p) in enumerate(sent) if want[p] == 1}
    for (rank, _), got in took:
        last: dict[int, int] = {}
        for p in got:
            if p in pos:
                sender, i = pos[p]
                if i < last.get(sender, -1):
                    out.append(f"{circuit}: p{rank} took p{sender}'s {p!r} "
                               f"after one p{sender} sent later")
                    break
                last[sender] = i
    return out


def _diff(got: Counter, want: Counter) -> str:
    missing = sorted((want - got).elements())
    extra = sorted((got - want).elements())
    return ((f", missing {missing}" if missing else "")
            + (f", unexpected {extra}" if extra else ""))
