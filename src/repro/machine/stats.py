"""Aggregated machine statistics for a finished simulation.

Benchmarks and tests read one :class:`MachineReport` instead of poking at
engine, bus and VM internals.  Everything here is observational: building
a report does not perturb the simulation.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cpu import BalanceTiming
from .engine import Engine

__all__ = ["MachineReport", "collect_report"]


@dataclass(frozen=True)
class MachineReport:
    """A snapshot of simulator counters after a run."""

    #: Final simulated time, seconds.
    sim_seconds: float
    #: Events the engine dispatched.
    events: int
    #: Total priced work, seconds (sum of all charges before queuing).
    charged_seconds: float
    #: Lock acquisitions / how many found the lock held.
    lock_acquires: int
    lock_contended: int
    #: Total simulated seconds processes spent blocked on locks.
    lock_wait_seconds: float
    #: Wake operations and sleepers woken.
    wakes: int
    woken: int
    #: Copy phases and the peak copy concurrency (bus model).
    copies: int
    peak_copiers: int
    #: Page faults and time lost to them (VM model).
    page_faults: float
    fault_seconds: float
    #: Cache read-miss stalls (block-equivalents) and time lost (cache model).
    cache_stalled_blocks: float
    cache_stall_seconds: float
    #: Entries parked in / taken from the engine's event queue, as
    #: opposed to events continued inline.  Deterministic (wall clocks
    #: drift with machine load; these do not): ``events / heap_pops`` is
    #: the mean straight-line run between two queue crossings.
    heap_pushes: int = 0
    heap_pops: int = 0
    # Constant zero, read by benchmarks/ledger on every rep; goes with ROADMAP 2(e).
    epoch_batches: int = 0
    epoch_events: int = 0

    def as_dict(self) -> dict[str, float]:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


def collect_report(engine: Engine, timing: BalanceTiming) -> MachineReport:
    """Assemble a :class:`MachineReport` from a finished engine."""
    return MachineReport(
        sim_seconds=engine.now,
        events=engine.stats.events,
        charged_seconds=engine.stats.charged_seconds,
        lock_acquires=engine.stats.lock_acquires,
        lock_contended=engine.stats.lock_contended,
        lock_wait_seconds=sum(p.lock_wait_time for p in engine.processes),
        wakes=engine.stats.wakes,
        woken=engine.stats.woken,
        copies=timing.bus.total_copies,
        peak_copiers=timing.bus.peak,
        page_faults=timing.vm.faults,
        fault_seconds=timing.vm.fault_time,
        cache_stalled_blocks=timing.cache.stalled_blocks,
        cache_stall_seconds=timing.cache.stall_time,
        heap_pushes=engine.stats.heap_pushes,
        heap_pops=engine.stats.heap_pops,
    )
