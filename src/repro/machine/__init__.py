"""Simulated Sequent Balance 21000: discrete-event engine + timing models.

The machine substitutes for the paper's hardware testbed (DESIGN.md §2):
:class:`~repro.machine.engine.Engine` runs coroutine processes in virtual
time; :class:`~repro.machine.cpu.BalanceTiming` prices their work using
the CPU, shared-bus (:mod:`~repro.machine.bus`) and paging
(:mod:`~repro.machine.vm`) models of
:class:`~repro.machine.balance.MachineConfig`.
"""

from .balance import BALANCE_21000, MachineConfig
from .bus import BusModel
from .cache import CacheModel
from .cpu import BalanceTiming
from .engine import DeadlockError, Engine, SimProcess, SimulationError, ZeroTimingModel
from .stats import MachineReport, collect_report
from .vm import VmModel

__all__ = [
    "BALANCE_21000",
    "MachineConfig",
    "BusModel",
    "CacheModel",
    "VmModel",
    "BalanceTiming",
    "Engine",
    "SimProcess",
    "DeadlockError",
    "SimulationError",
    "ZeroTimingModel",
    "MachineReport",
    "collect_report",
]
