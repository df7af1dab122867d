"""Write-through cache model for the simulated Balance 21000.

Paper §4: "Each processor has a 8K byte, write-through cache and an 8K
byte local memory."  For MPF traffic the cache matters in one place:
the *reads* of message blocks during fill/drain loops.  Writes always
go to memory (write-through), but whether block reads hit depends on
how much of the block pool is being cycled:

* a single loop-back process reuses the same few blocks (the LIFO free
  list keeps them hot) — reads hit;
* deep queues and high fan-out cycle a working set larger than 8 KB —
  reads miss and stall on the bus.

The model: when the live block-pool footprint exceeds the cache size, a
proportional fraction of per-block work pays a miss stall.  The effect
is deliberately second-order (a few microseconds per 10-byte block
against ~370 charged instructions) — notably, the paper's own analysis
never invokes the cache, and the ``ablation_cache`` benchmark confirms
the model agrees: disabling it moves no curve by more than a few
percent.
"""

from __future__ import annotations

from typing import Callable

__all__ = ["CacheModel"]


class CacheModel:
    """Read-miss surcharge for block-chain traffic."""

    __slots__ = ("cache_bytes", "miss_seconds", "_demand",
                 "stall_time", "stalled_blocks")

    def __init__(self, cache_bytes: int, miss_seconds: float) -> None:
        self.cache_bytes = cache_bytes
        self.miss_seconds = miss_seconds
        self._demand: Callable[[], int] = lambda: 0
        #: Simulated seconds lost to read-miss stalls (statistics).
        self.stall_time = 0.0
        #: Block-equivalents that stalled (statistics, fractional).
        self.stalled_blocks = 0.0

    def set_demand_source(self, fn: Callable[[], int]) -> None:
        """Wire the live block-pool footprint signal (bytes)."""
        self._demand = fn

    def miss_fraction(self) -> float:
        """Fraction of block reads missing the cache right now."""
        demand = self._demand()
        if demand <= self.cache_bytes or demand <= 0:
            return 0.0
        return (demand - self.cache_bytes) / demand

    def penalty(self, blocks: int) -> float:
        """Stall surcharge for touching ``blocks`` message blocks (none
        when a miss costs nothing: the model is off)."""
        if not self.miss_seconds or blocks <= 0:
            return 0.0
        frac = self.miss_fraction()
        if frac <= 0.0:
            return 0.0
        stalled = blocks * frac
        self.stalled_blocks += stalled
        dt = stalled * self.miss_seconds
        self.stall_time += dt
        return dt
