"""MPF core: the paper's contribution, runtime-agnostic.

Submodules:

* :mod:`~repro.core.protocol` — FCFS/BROADCAST and segment constants,
* :mod:`~repro.core.errors` — the exception hierarchy,
* :mod:`~repro.core.region`, :mod:`~repro.core.layout`,
  :mod:`~repro.core.freelist`, :mod:`~repro.core.structs` — the shared
  byte-level data structures of paper §3.1,
* :mod:`~repro.core.effects`, :mod:`~repro.core.work` — the effect
  protocol separating the algorithm from the system-dependent part,
* :mod:`~repro.core.ops` — the eight MPF primitives of paper §2,
* :mod:`~repro.core.costmodel` — the calibrated instruction budgets.
"""

from .costmodel import Costs, DEFAULT_COSTS, free_costs
from .errors import (
    BufferOverflowError,
    DuplicateConnectionError,
    MPFConfigError,
    MPFError,
    MPFNameError,
    NoFreeLNVCError,
    NotConnectedError,
    OutOfDescriptorsError,
    OutOfMessageMemoryError,
    ProtocolViolationError,
    RegionFormatError,
    UnknownLNVCError,
)
from .layout import MPFConfig, SegmentLayout, format_region
from .ops import MPFView
from .protocol import BROADCAST, FCFS, Protocol
from .region import SharedRegion

__all__ = [
    "Costs",
    "DEFAULT_COSTS",
    "free_costs",
    "MPFConfig",
    "SegmentLayout",
    "format_region",
    "MPFView",
    "SharedRegion",
    "Protocol",
    "FCFS",
    "BROADCAST",
    "MPFError",
    "MPFConfigError",
    "MPFNameError",
    "UnknownLNVCError",
    "NotConnectedError",
    "DuplicateConnectionError",
    "ProtocolViolationError",
    "NoFreeLNVCError",
    "OutOfDescriptorsError",
    "OutOfMessageMemoryError",
    "BufferOverflowError",
    "RegionFormatError",
]
