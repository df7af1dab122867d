"""Invariants the checker evaluates, and when it is safe to do so.

The *structural* invariants of the shared segment (allocator
conservation, FIFO shape, descriptor-cache coherence, ...) live in
:func:`repro.core.inspect.check_invariants` so the ordinary test suite
shares them.  This module adds the two pieces that are specific to
model checking:

* **quiescence classification** — deciding at which points of a
  controlled run each invariant tier may be evaluated without false
  alarms (see :func:`segment_quiescent` and :class:`SteadyProbe`);
* **delivery oracles** — end-to-end contracts (FCFS exactly-once and
  per-sender FIFO order, BROADCAST every-receiver in-order delivery,
  paper §2; the segment's traffic counters against what the workers
  themselves counted) evaluated on worker return values after a run.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ..core.inspect import (
    InvariantViolation,
    check_invariants,
    collect_violations,
)

__all__ = [
    "InvariantViolation",
    "check_invariants",
    "collect_violations",
    "segment_quiescent",
    "SteadyProbe",
    "check_fcfs_delivery",
    "check_broadcast_delivery",
    "check_traffic_counts",
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


def check_fcfs_delivery(
    sent: Sequence[bytes],
    received: Sequence[Sequence[bytes]],
    senders: Iterable[int] | None = None,
) -> list[str]:
    """FCFS contract: exactly-once delivery, FIFO order per sender.

    ``sent`` is the full multiset of payloads enqueued (in per-sender
    order); ``received`` holds each FCFS receiver's payloads in receive
    order.  With ``senders`` given, payloads are ``bytes([sender, i])``
    and FIFO order is checked per sender; without, ``sent`` is one
    sender's sequence and each receiver's takes must respect its order.
    """
    out: list[str] = []
    union = [m for got in received for m in got]
    if sorted(union) != sorted(sent):
        missing = set(sent) - set(union)
        extra = [m for m in union if m not in set(sent)]
        dupes = len(union) - len(set(union))
        out.append(
            "FCFS exactly-once broken: "
            f"{len(union)} received vs {len(sent)} sent"
            + (f", missing {sorted(missing)}" if missing else "")
            + (f", unexpected {extra}" if extra else "")
            + (f", {dupes} duplicate(s)" if dupes else "")
        )
    if senders is not None:
        for ri, got in enumerate(received):
            for s in senders:
                idxs = [m[1] for m in got if m and m[0] == s]
                if idxs != sorted(idxs):
                    out.append(
                        f"FCFS order broken: receiver {ri} saw sender {s}'s "
                        f"messages as {idxs}"
                    )
    else:
        pos = {m: i for i, m in enumerate(sent)}
        for ri, got in enumerate(received):
            idxs = [pos[m] for m in got if m in pos]
            if idxs != sorted(idxs):
                out.append(
                    f"FCFS order broken: receiver {ri} took send positions "
                    f"{idxs}"
                )
    return out


def check_broadcast_delivery(
    sent: Sequence[bytes], got: Sequence[bytes], who: str = "receiver"
) -> list[str]:
    """BROADCAST contract: every receiver sees every message, in order."""
    if list(got) != list(sent):
        return [
            f"BROADCAST delivery broken: {who} saw {list(got)!r}, "
            f"expected {list(sent)!r}"
        ]
    return []


def check_traffic_counts(header: dict, sends: int, receives: int) -> list[str]:
    """Header counts == delivered counts.

    ``sends`` / ``receives`` are the ``message_send`` / ``message_receive``
    calls the workers saw return; ``header`` is the run's
    :attr:`~repro.runtime.base.RunResult.header`.  A mismatch on a real
    runtime means a counter was updated outside the lock that guards it.
    """
    out = []
    for what, counted in (("sends", sends), ("receives", receives)):
        read = header[f"total_{what}"]
        if read != counted:
            out.append(f"header counts {read} {what}, workers completed "
                       f"{counted}")
    return out
