"""Virtual-memory (paging) overhead model.

Paper §4, on the random benchmark (Figure 6): "When a large number of
processes are transmitting large messages, MPF must allocate a large
amount of memory for message buffers.  The larger the memory requirements
for message transfer, the more susceptible MPF performance is to virtual
memory overheads.  For 1024-byte messages, paging overhead increases
rapidly for more than 10 processes; this is the reason for the decrease in
observed throughput."

The model: the operating system keeps a *resident budget* of MPF message
memory (``resident_bytes``).  The demand signal is the live payload
footprint of the segment (queued message bytes), sampled through a
callback the runtime wires to the segment header — so demand rises and
falls with real queue occupancy, not with a synthetic counter.  When
demand exceeds the budget, a fraction of newly touched pages fault:

    ``fault_fraction = (demand - resident) / demand``  (clamped to [0, 1])

and each fault costs ``page_fault_seconds``.  Faults are charged to the
process touching the pages (the sender allocating blocks), which is where
the Balance's Unix charged them too.
"""

from __future__ import annotations

from typing import Callable

__all__ = ["VmModel"]


class VmModel:
    """Deterministic paging surcharge."""

    __slots__ = (
        "resident_bytes",
        "page_bytes",
        "fault_seconds",
        "_demand",
        "faults",
        "fault_time",
        "_carry",
    )

    def __init__(
        self,
        resident_bytes: int,
        page_bytes: int,
        fault_seconds: float,
    ) -> None:
        self.resident_bytes = resident_bytes
        self.page_bytes = page_bytes
        self.fault_seconds = fault_seconds
        self._demand: Callable[[], int] = lambda: 0
        #: Page faults charged so far (statistics).
        self.faults = 0.0
        #: Simulated seconds lost to faults (statistics).
        self.fault_time = 0.0
        # Fractional faults accumulate so small touches still pay their
        # share deterministically (no randomness in the simulator).
        self._carry = 0.0

    def set_demand_source(self, fn: Callable[[], int]) -> None:
        """Wire the live-footprint signal (segment ``live_bytes``)."""
        self._demand = fn

    def fault_fraction(self) -> float:
        """Fraction of newly touched pages that fault right now."""
        demand = self._demand()
        if demand <= self.resident_bytes or demand <= 0:
            return 0.0
        return (demand - self.resident_bytes) / demand

    def touch(self, nbytes: int) -> float:
        """Charge for touching ``nbytes`` of message memory.

        Returns the fault surcharge in simulated seconds (none when a
        fault costs nothing: the model is off).
        """
        if not self.fault_seconds or nbytes <= 0:
            return 0.0
        frac = self.fault_fraction()
        if frac <= 0.0:
            return 0.0
        pages = (nbytes + self.page_bytes - 1) // self.page_bytes
        expected = pages * frac + self._carry
        whole = int(expected)
        self._carry = expected - whole
        if whole == 0:
            return 0.0
        self.faults += whole
        dt = whole * self.fault_seconds
        self.fault_time += dt
        return dt
