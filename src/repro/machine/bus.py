"""Shared-bus contention model.

Every Balance 21000 processor reaches memory over one shared bus, and the
write-through caches force every copied byte onto it.  At MPF's software
copy rates (~tens of KB/s per process) the bus is never *bandwidth*
saturated — 80 MB/s dwarfs the traffic — but concurrent copiers still
steal each other's bus and memory-controller cycles.  The paper sees this
as the mild sub-linearity of the broadcast curves (Figure 5) and part of
the small-message contention of Figure 4.

The model is intentionally first-order: a copy phase that starts while
``k`` other processes are copying runs ``1 + alpha * k`` times slower.
``alpha`` is a calibrated machine parameter
(:attr:`~repro.machine.balance.MachineConfig.bus_contention_alpha`).
"""

from __future__ import annotations

__all__ = ["BusModel"]


class BusModel:
    """Tracks concurrent shared-memory copy phases."""

    __slots__ = ("alpha", "active", "peak", "total_copies")

    def __init__(self, alpha: float) -> None:
        self.alpha = alpha
        #: Copy phases currently in flight.
        self.active = 0
        #: Maximum concurrency observed (statistics).
        self.peak = 0
        #: Copy phases ever started (statistics).
        self.total_copies = 0

    def started(self) -> None:
        """A process entered a copy phase."""
        self.active += 1
        self.total_copies += 1
        if self.active > self.peak:
            self.peak = self.active

    def finished(self) -> None:
        """A process left a copy phase."""
        if self.active <= 0:
            raise RuntimeError("bus copy finished without matching start")
        self.active -= 1

    def slowdown(self) -> float:
        """Multiplier for a copy phase starting *now*.

        ``self.active`` counts the *other* copiers because the engine
        prices a charge before marking its copy phase started.
        """
        return 1.0 + self.alpha * self.active
