"""Post-mortem analysis of a stalled controlled run.

When the engine raises :class:`~repro.machine.engine.DeadlockError`, the
checker wants more than "everyone is blocked": it classifies the stall
and renders a wait-for report.

* **lock cycle** — processes blocked on locks whose owners are blocked
  in turn; the classic deadlock.  MPF's global lock order makes this
  impossible in the unmutated library, so seeing one means a fault.
* **lost wakeup** — a process asleep on a circuit's wait channel while
  the circuit holds traffic it could consume (an FCFS sleeper with a
  non-NIL shared FCFS head, a BROADCAST sleeper whose descriptor head
  is non-NIL).  The wake that should have resumed it was dropped.
* **lost message** — sleepers with genuinely nothing to consume: the
  paper's §3.2 programming hazard (senders closed before receivers
  joined, discarding the traffic), or a counting bug in the program.

A sleeper's circuit is read through :func:`repro.core.inspect.walk_list`,
so a cyclic FIFO or descriptor list raises
:class:`~repro.core.errors.RegionFormatError` instead of hanging the report.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.inspect import walk_list
from ..core.ops import MPFView
from ..core.protocol import NIL, Protocol
from ..core.structs import LNVC, RECV

__all__ = ["BlockedInfo", "StallReport", "analyze_stall"]


@dataclass
class BlockedInfo:
    """One blocked process in the stall."""

    name: str
    pid: int
    state: str  # "wait-lock" | "wait-chan"
    #: Lock waited for ("wait-lock") or to be reacquired after the
    #: channel sleep ("wait-chan").
    lock_id: int | None
    #: Wait channel (= circuit slot) for "wait-chan" blocks.
    chan: int | None
    #: Name of the process owning the awaited lock, if any.
    owner: str | None
    #: Receive protocol of the sleeper's connection, if resolvable.
    proto: str | None = None
    #: True if the sleeper's circuit holds traffic it could consume.
    deliverable: bool = False


@dataclass
class StallReport:
    """Classified wait-for picture of a stalled run."""

    blocked: list[BlockedInfo]
    #: ``"lock-cycle"`` | ``"lost-wakeup"`` | ``"lost-message"`` | ``"stall"``
    kind: str
    #: Lock wait-for cycle as process names, when one exists.
    cycle: list[str] = field(default_factory=list)

    @property
    def all_wait_chan(self) -> bool:
        """True when every blocked process sleeps on a wait channel.

        Channel sleepers sit *between* operations (a receiver parks
        before claiming anything), so an all-``wait-chan`` stall is a
        quiescent segment: final-tier invariants may be evaluated.
        """
        return all(b.state == "wait-chan" for b in self.blocked)

    def render(self) -> str:
        lines = [f"stalled: {self.kind} ({len(self.blocked)} blocked)"]
        for b in self.blocked:
            if b.state == "wait-chan":
                extra = f"sleeping on circuit {b.chan}"
                if b.proto:
                    extra += f" as {b.proto}"
                if b.deliverable:
                    extra += " WITH DELIVERABLE TRAFFIC (lost wakeup)"
            else:
                extra = f"waiting for lock {b.lock_id}"
                if b.owner:
                    extra += f" held by {b.owner}"
            lines.append(f"  {b.name}: {extra}")
        if self.cycle:
            lines.append("  lock cycle: " + " -> ".join(self.cycle))
        return "\n".join(lines)


def _sleeper_status(view: MPFView, slot: int, pid: int) -> tuple[str | None, bool]:
    """(protocol name, has-deliverable-traffic) for a channel sleeper."""
    r = view.region
    if slot >= view.cfg.max_lnvcs:
        return None, False
    base = view.layout.lnvc_off(slot)
    if not LNVC.get(r, base, "in_use"):
        return None, False
    # The traffic a sleeper could consume lies on the FIFO: vouch for it
    # before reading heads into it.
    walk_list(view, slot, "FIFO", LNVC.get(r, base, "fifo_head"))
    for desc in walk_list(view, slot, "recv list", LNVC.get(r, base, "recv_list")):
        if RECV.get(r, desc, "pid") == pid:
            proto = Protocol(RECV.get(r, desc, "proto"))
            if proto is Protocol.FCFS:
                return "FCFS", LNVC.get(r, base, "fcfs_head") != NIL
            return "BROADCAST", RECV.get(r, desc, "head") != NIL
    return None, False


def analyze_stall(engine, view: MPFView) -> StallReport:
    """Build a :class:`StallReport` from a stalled engine.

    Relies on the engine/runtime convention that process ``pid`` equals
    the worker's MPF rank (both count spawn order).
    """
    blocked: list[BlockedInfo] = []
    chan_of = {}
    for chan, channel in enumerate(engine.channels):
        for sleeper in channel.sleepers:
            chan_of[sleeper.pid] = chan
    for proc in engine.processes:
        if proc.state == "wait-lock":
            lock = engine.locks[proc._wait_lock]
            blocked.append(BlockedInfo(
                name=proc.name, pid=proc.pid, state="wait-lock",
                lock_id=proc._wait_lock, chan=None,
                owner=lock.owner.name if lock.owner is not None else None,
            ))
        elif proc.state == "wait-chan":
            chan = chan_of.get(proc.pid)
            proto, deliverable = (
                _sleeper_status(view, chan, proc.pid)
                if chan is not None else (None, False)
            )
            blocked.append(BlockedInfo(
                name=proc.name, pid=proc.pid, state="wait-chan",
                lock_id=proc._wait_lock, chan=chan, owner=None,
                proto=proto, deliverable=deliverable,
            ))

    # Lock wait-for cycle: edge waiter -> owner, both blocked.
    by_name = {b.name: b for b in blocked}
    cycle: list[str] = []
    for start in blocked:
        seen: list[str] = []
        cur: BlockedInfo | None = start
        while cur is not None and cur.state == "wait-lock" and cur.owner:
            if cur.name in seen:
                cycle = seen[seen.index(cur.name):] + [cur.name]
                break
            seen.append(cur.name)
            cur = by_name.get(cur.owner)
        if cycle:
            break

    if cycle:
        kind = "lock-cycle"
    elif any(b.deliverable for b in blocked):
        kind = "lost-wakeup"
    elif blocked and all(b.state == "wait-chan" for b in blocked):
        kind = "lost-message"
    else:
        kind = "stall"
    return StallReport(blocked=blocked, kind=kind, cycle=cycle)
