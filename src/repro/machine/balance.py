"""Machine description of the Sequent Balance 21000 testbed.

Paper §4: "All experiments were conducted on a machine containing 20
processors and 16 Mbytes of memory.  Each Balance 21000 processor is a
10 MHz National Semiconductor NS32032 microprocessor, and all processors
are connected to shared memory by a shared bus with a 80 Mbyte/s (maximum)
transfer rate.  Each processor has a 8K byte, write-through cache and an
8K byte local memory."

:class:`MachineConfig` keeps the published numbers the simulation reads
(processors, bus rate, cache and page size; the 16 MB of memory bound
nothing and is not modelled) together with the model parameters that
calibrate it against the paper's curves (instruction time, floating
point time, bus contention, resident budget, fault and miss costs).  A
model term is off when its per-unit cost is zero.  EXPERIMENTS.md's
parameter census records which figure, if any, pins each field.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from numbers import Integral, Real

__all__ = ["MachineConfig", "BALANCE_21000"]

#: Fields that must be strictly positive; every other field may be zero.
_POSITIVE = frozenset({"n_cpus", "instr_seconds", "bus_bytes_per_second",
                       "cache_bytes", "page_bytes"})


@dataclass(frozen=True)
class MachineConfig:
    """Hardware and timing-model parameters of the simulated machine."""

    # -- published hardware (paper §4) --------------------------------------
    #: Processor count.
    n_cpus: int = 20
    #: Shared bus maximum transfer rate, bytes/second (80 MB/s).
    bus_bytes_per_second: float = 80e6
    #: Per-processor write-through cache, bytes (8 KB).
    cache_bytes: int = 8 << 10
    #: Virtual memory page size, bytes (NS32082 MMU: 512-byte pages).
    page_bytes: int = 512

    # -- model parameters (calibrated; see EXPERIMENTS.md) --------------------
    #: Seconds per average instruction on pointer-heavy C code.  The
    #: NS32032 retired roughly one instruction per 8-12 cycles on such
    #: code; 10 cycles at the published 10 MHz is 1 µs, ~1 MIPS.
    instr_seconds: float = 1e-6
    #: Seconds per double-precision floating point *element operation* —
    #: arithmetic plus the array addressing and loop overhead around it
    #: in compiled C.  The NS32081 FPU plus its slow coupling and the
    #: surrounding integer work put this in the tens of microseconds
    #: (the Balance measured ~0.1 MFLOPS on LINPACK-style loops, and the
    #: element overhead roughly triples the pure-FP time).  Calibrated
    #: against Figure 7's speedup levels.
    flop_seconds: float = 45e-6
    #: Extra fractional bus cost per *other* concurrent copier.  Captures
    #: the write-through caches pushing every copied byte onto the shared
    #: bus; produces the sub-linear broadcast scaling of Figure 5.
    bus_contention_alpha: float = 0.008
    #: Resident-set budget for MPF message memory, bytes.  When the
    #: high-water message footprint exceeds this, block touches begin to
    #: fault (Figure 6's decline past ~10 processes at 1024-byte messages).
    resident_bytes: int = 24 << 10
    #: Seconds per page fault; 0 turns the paging model off.  Calibrated
    #: to Figure 6: with 1024-byte messages the random benchmark peaks
    #: near 10-14 processes and then declines, while 256-byte messages
    #: only begin to fault at 20 processes — a 1987 Unix reclaim with
    #: occasional disk involvement.
    page_fault_seconds: float = 30e-3
    #: Read-miss stall per message block once the cycled block footprint
    #: exceeds the 8 KB cache (a handful of memory accesses at ~1 µs);
    #: 0 turns the cache model off.
    cache_miss_seconds: float = 4e-6

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            kind, noun = ((Integral, "an int") if f.type == "int"
                          else (Real, "a number"))
            if isinstance(value, bool) or not isinstance(value, kind):
                raise ValueError(f"MachineConfig.{f.name} must be {noun}, "
                                 f"got {value!r}")
            if f.name in _POSITIVE:
                if not value > 0:
                    raise ValueError(f"MachineConfig.{f.name} must be > 0, "
                                     f"got {value!r}")
            elif not value >= 0:
                raise ValueError(f"MachineConfig.{f.name} must be >= 0, "
                                 f"got {value!r}")


#: The paper's testbed.
BALANCE_21000 = MachineConfig()
