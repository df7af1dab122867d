"""Instruction-count model of the 1987 C implementation.

The primitives in :mod:`repro.core.ops` describe their own cost in
*instructions* of the paper's target CPU (a 10 MHz National Semiconductor
NS32032, roughly 1 MIPS on this kind of pointer-chasing C code).  The
constants below are the per-activity instruction budgets; converting
instructions to seconds is the simulated machine's job
(:class:`repro.machine.cpu.BalanceTiming`).

Calibration
-----------
Figure 3 is the fit (see EXPERIMENTS.md, "Calibration and the parameter
census", for what every budget moves):

* Its **asymptote** (≈22–25 KB/s) pins the per-block sum.  With 10-byte
  blocks a round trip moves each byte twice (user buffer → blocks →
  user buffer) and manipulates ``2·L/10`` blocks, so per-block costs
  dominate: ``blk_alloc + blk_fill + blk_drain + blk_free +
  2·10·copy_byte`` ≈ 365 instructions per block ⇒ ≈37 µs per payload
  byte ⇒ ≈27 KB/s ceiling.
* Its **curvature** (throughput still rising at 1–2 KB messages) pins
  the per-message sum (``send_fixed + recv_fixed + msg_link +
  msg_retire + msg_discard``) at several thousand instructions — the
  1987 library call, descriptor search, queue update and lock traffic.

Only the sums are pinned: the figure cannot tell how each splits.
Figures 4 and 5 then test the send / receive split out of sample, and
``list_step`` is the one other budget a figure constrains within a
factor of two (Figure 5).  The ``ring_*`` budgets and
``cacheline_xfer`` move only the transport ablations, and the lock,
wake, open / close and check budgets are assumptions.

The numbers are *model parameters*, not measurements of this Python
code.  Every budget is a non-negative int, checked at construction.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Costs", "DEFAULT_COSTS", "free_costs"]


@dataclass(frozen=True, slots=True)
class Costs:
    """Instruction budgets for every activity of the MPF implementation."""

    # -- synchronization ---------------------------------------------------
    #: Successful lock acquisition (uninterlocked path).
    lock_acquire: int = 25
    #: Lock release.
    lock_release: int = 15
    #: Executing a wake on a channel (scan + unblock).
    wake: int = 60
    #: Charged to a woken process when it resumes (context switch + recheck).
    waiter_wakeup: int = 120

    # -- fixed per-primitive overhead ---------------------------------------
    #: ``open_send``/``open_receive``: name hash, table search framing,
    #: descriptor setup.
    open_fixed: int = 900
    #: ``close_send``/``close_receive`` framing.
    close_fixed: int = 900
    #: ``message_send`` fixed path (call, validation, queue bookkeeping).
    send_fixed: int = 3500
    #: ``message_receive`` fixed path.
    recv_fixed: int = 3000
    #: ``check_receive`` fixed path.
    check_fixed: int = 250

    # -- per message block --------------------------------------------------
    # The split between the allocation constants (charged *inside* the
    # allocator lock) and the fill/drain constants (charged outside every
    # lock) matters: only the former serialize the whole facility.  A
    # free-list pop is a couple of loads and a store; the expensive part
    # of block handling is the copy loop, which runs unlocked.
    #: Pop one block from the shared free list (under ALLOC_LOCK).
    blk_alloc: int = 15
    #: Push one block back (under ALLOC_LOCK).
    blk_free: int = 10
    #: Loop/linkage overhead to fill one block on send (no lock held).
    blk_fill: int = 155
    #: Loop/linkage overhead to drain one block on receive (no lock held).
    blk_drain: int = 145
    #: Per payload byte moved (each direction).
    copy_byte: int = 2

    # -- ring transport -----------------------------------------------------
    # The ring's fixed costs sit slightly below the free-list path's: no
    # descriptor-list walk on send, no allocator round trip, no per-block
    # loop.  Its *contention* profile is what really differs — a sender
    # takes the circuit lock exactly once per message (claim+fill+commit
    # in one section) and never touches a global lock, so the modeled
    # coherence charges below (one per cache line touched by another CPU
    # since we last owned it) dominate at high fan-in instead of lock
    # convoys.
    #: ``message_send`` fixed path on a ring circuit.
    ring_send_fixed: int = 3000
    #: ``message_receive`` fixed path on a ring circuit.
    ring_recv_fixed: int = 2600
    #: Claiming a write index / snapshotting the reader mask (start of
    #: the sender's single circuit-lock section).
    ring_claim: int = 60
    #: Publishing a committed slot (commit-word store + state bits).
    ring_publish: int = 80
    #: BROADCAST reader taking a committed slot on the lock-free fast
    #: path: commit-word check plus private-cursor bump.  No descriptor
    #: walk and no lock — the per-reader cursor is the whole point of
    #: the mpsoc read side, so this is charged *outside* any section.
    ring_cursor: int = 30
    #: Consuming a slot: pending-bit clear, retire check.
    ring_consume: int = 90
    #: Bus cost of pulling one cache line whose last writer was another
    #: CPU (slot header, bitmap line, or shared control line).
    cacheline_xfer: int = 25

    # -- list manipulation --------------------------------------------------
    #: Per element examined in any linked-list or table walk.
    list_step: int = 12
    #: Linking a message at the FIFO tail + head-pointer updates.
    msg_link: int = 150
    #: Retirement bookkeeping per message at receive completion.
    msg_retire: int = 80
    #: Per message discarded when a circuit is deleted or reaped.
    msg_discard: int = 60

    def __post_init__(self) -> None:
        for name in self.__dataclass_fields__:
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) \
                    or value < 0:
                raise ValueError(f"Costs.{name} must be a non-negative "
                                 f"int, got {value!r}")


#: The calibrated default model.
DEFAULT_COSTS = Costs()


def free_costs() -> Costs:
    """A zero-cost model: every budget is 0.

    Real runtimes do not price instruction budgets at all, but tests use
    this to assert that op *logic* never depends on cost constants.
    """
    return Costs(**{f: 0 for f in Costs.__dataclass_fields__})
