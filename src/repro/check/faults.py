"""Intentionally injected bugs, for proving the checker detects them.

A model checker that has never seen a failure proves nothing: the CI
smoke job and the acceptance tests run one *mutated* operation per
scenario and require the checker to flag it.  Two mutants cover the two
failure families a schedule explorer can surface:

* :func:`unlocked_send` — :func:`repro.core.ops.message_send` with its
  link step (the same ``_link_tail`` helper) run without the circuit
  lock **and** after a yield that follows the reads of the sequence
  number and the tail, opening a torn-update window.
  Two racing sends through the window orphan a message (allocated and
  counted, but unreachable from the FIFO) — exactly the corruption the
  per-circuit lock exists to prevent, caught by the structural
  invariants of :mod:`repro.core.inspect`.
* :func:`drop_wake` — an effect filter that swallows ``Wake`` effects,
  simulating a missed ``notify``.  Receivers already asleep never learn
  a message arrived: a *lost wakeup*, caught by
  :func:`repro.check.deadlock.analyze_stall` as sleepers on a circuit
  with deliverable traffic.

Both are deliberately broken; nothing outside :mod:`repro.check` and its
tests may import them.
"""

from __future__ import annotations

from typing import Generator

from ..core.effects import Acquire, Charge, Release, Wake
from ..core.freelist import fill_chain, fl_alloc, pop_chain
from ..core.layout import HDR
from ..core.ops import (  # private ops internals, on purpose
    _H_FREE_BLK,
    _H_FREE_MSG,
    _L_GEN,
    _L_SEQ,
    _SLOT_MASK,
    MPFView,
    OpGen,
    _link_tail,
)
from ..core.protocol import ALLOC_LOCK, NIL
from ..core.structs import LNVC
from ..core.work import Work

_H_LIVE_MSGS = HDR.u32["live_msgs"]
_H_LIVE_BLOCKS = HDR.u32["live_blocks"]
_H_LIVE_BYTES = HDR.u32["live_bytes"]
_L_FIFO_TAIL = LNVC.offsets["fifo_tail"]

__all__ = ["FAULTS", "drop_wake", "unlocked_send"]


def drop_wake(gen: Generator) -> Generator:
    """Forward every effect of ``gen`` except ``Wake`` (swallowed).

    Models a broken implementation that releases the circuit lock but
    forgets to notify the wait channel — the classic lost-wakeup bug.
    A :class:`~repro.core.effects.FusedSection` cannot wake anybody (no
    such step exists), so sections are forwarded as they are.
    """
    value = None
    try:
        while True:
            effect = gen.send(value)
            if isinstance(effect, Wake):
                value = None  # swallowed: the injected bug
            else:
                value = yield effect
    except StopIteration as stop:
        return stop.value


def unlocked_send(view: MPFView, pid: int, lnvc_id: int, data: bytes) -> OpGen:
    """``message_send`` with the circuit lock removed and a torn window.

    Allocation (phase 1) and block fill (phase 2) are kept correct; the
    FIFO-link phase runs with **no** circuit lock and yields to the
    scheduler between reading ``fifo_tail`` and linking.  Two instances
    racing through that window both read the same tail; the second link
    overwrites the first, leaving a message counted in ``live_msgs`` and
    ``nmsgs`` but unreachable from the FIFO.
    """
    data = bytes(data)
    r = view.region
    u32 = r.u32
    bs = view.cfg.block_size
    length = len(data)
    nblk = (length + bs - 1) // bs
    # Torn sends still report to the probe: a failure's message history
    # must include the very sends that corrupt the segment (its stages
    # are not timed apart: the checker's clock stands still).
    probe = view.probe
    t_entry = probe.now() if probe is not None else 0.0

    # Phase 1: allocation, correctly under the allocator lock.
    yield Acquire(ALLOC_LOCK)
    hdr = fl_alloc(r, _H_FREE_MSG)
    assert hdr != NIL, "fault scenarios must size the pool generously"
    blocks = pop_chain(r, _H_FREE_BLK, nblk)
    assert blocks is not None, "fault scenarios must size the pool generously"
    r.add_u32(_H_LIVE_MSGS, 1)
    r.add_u32(_H_LIVE_BLOCKS, nblk)
    r.add_u32(_H_LIVE_BYTES, length)
    yield Release(ALLOC_LOCK)

    # Phase 2: fill the private chain (correct: blocks are still private).
    fill_chain(r, blocks, data, bs)

    # Phase 3: link at the FIFO tail -- THE BUG: no circuit lock, and a
    # scheduler yield between reading the sequence number and the tail
    # and the link that is only correct for fresh values of both.
    slot = lnvc_id & _SLOT_MASK
    base = view.layout.lnvc_off(slot)
    seqno = u32(base + _L_SEQ)
    tail = u32(base + _L_FIFO_TAIL)
    yield Charge(Work(instrs=1, label="fault-torn-window"))
    _, depth, _ = _link_tail(view, base, hdr, pid, length, blocks,
                             stale=(seqno, tail))
    if probe is not None:
        probe.msg_sent(pid, slot, u32(base + _L_GEN), seqno, length, nblk,
                       depth, t_entry, t_entry, t_entry)
    yield Wake(slot)
    return seqno


#: Injectable faults by CLI name.  The checker's ``Env`` injects one
#: into every send on a scenario's ``data`` circuit: ``torn-send``
#: reroutes the send through :func:`unlocked_send`, ``drop-wake`` wraps
#: it in :func:`drop_wake`.
FAULTS = ("torn-send", "drop-wake")
